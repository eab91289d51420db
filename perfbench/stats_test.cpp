// Tests for the percentile helper (stats.h). run.py builds and runs this
// binary before every benchmark run; a non-zero exit fails the benchmark.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

/// Within one histogram bucket of the exact answer.
bool near(double got, double want) { return std::fabs(got - want) <= want * 0.005; }

perfbench::Histogram one_to(int n) {
  perfbench::Histogram h;
  for (int i = n; i >= 1; --i) h.add(i);  // descending on purpose
  return h;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: p50 of 10 samples is the 5th, p99 of 100 the 99th, p100
  // the last, and p0 still the first.
  CHECK(nearest_rank(10, 50) == 5);
  CHECK(nearest_rank(10, 100) == 10);
  CHECK(nearest_rank(10, 0) == 1);
  CHECK(nearest_rank(100, 99) == 99);
  CHECK(nearest_rank(10000, 99.9) == 9990);  // no floating-point round-up
  CHECK(nearest_rank(0, 50) == 0);

  // Samples beyond: p99 of 1000 leaves exactly 10 above it, of 999 only 9.
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(samples_beyond(999, 99) == 9);
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(samples_beyond(0, 50) == 0);
  CHECK(samples_beyond(1, 50) == 0);

  // Highest supported level follows the ten-beyond rule.
  CHECK(highest_supported(10000) == 99.9);
  CHECK(highest_supported(1000) == 99);
  CHECK(highest_supported(999) == 90);
  CHECK(highest_supported(100) == 90);
  CHECK(highest_supported(99) == 50);
  CHECK(highest_supported(20) == 50);
  CHECK(highest_supported(19) == 0);
  CHECK(highest_supported(0) == 0);

  // Histogram percentiles land within a bucket of the exact nearest rank.
  const Histogram ten = one_to(10);
  CHECK(ten.count() == 10);
  CHECK(near(ten.percentile(50), 5));
  CHECK(ten.percentile(100) == 10);  // the exact maximum bounds the answer
  CHECK(ten.percentile(0) == 1);     // and the exact minimum
  // Timing: p50 over every sample, p99 as the median of 1000-sample blocks.
  Timing steady;
  for (int round = 0; round < 3; ++round)
    for (int i = 1; i <= 1000; ++i) steady.add(i);
  const Summary big = summarize(steady);
  CHECK(big.n == 3000);
  CHECK(big.blocks == 3);
  CHECK(near(big.p50, 500));
  CHECK(near(big.p99, 990));
  CHECK(big.p99_supported());
  CHECK(big.tail_level == 99);

  // One block of slow samples among three moves the pooled p99, not the
  // median of block p99s.
  Timing burst;
  for (int i = 1; i <= 1000; ++i) burst.add(i);
  for (int i = 1; i <= 1000; ++i) burst.add(100 * i);
  for (int i = 1; i <= 1000; ++i) burst.add(i);
  CHECK(near(summarize(burst).p99, 990));
  CHECK(burst.pooled().percentile(99) > 90000);

  // Fewer than a block: the pooled p99 stands in and is flagged.
  Timing small;
  for (int i = 150; i >= 1; --i) small.add(i);
  const Summary s150 = summarize(small);
  CHECK(!s150.p99_supported());
  CHECK(s150.tail_level == 90);
  CHECK(near(s150.p99, 149));

  CHECK(median({}) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);

  // Sub-microsecond and very long samples stay within the exact bounds.
  Histogram wide;
  wide.add(1e-6);
  wide.add(5e5);
  CHECK(wide.percentile(0) == 1e-6);
  CHECK(wide.percentile(100) == 5e5);

  const Summary empty = summarize(Timing{});
  CHECK(empty.n == 0 && empty.p50 == 0 && empty.p99 == 0 && empty.tail_level == 0);

  if (failures == 0) std::printf("stats_test: ok\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
