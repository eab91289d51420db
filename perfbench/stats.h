// Percentile rules for the benchmark's reported timings.
//
// A timing is reported as its median and a tail percentile, each with the
// number of samples behind it. A tail percentile is only meaningful when at
// least kMinBeyond samples lie above it: p99 needs 1000 samples, p90 needs
// 100. highest_supported() names the highest standard level that holds for
// a given count, so the printed table can show when a run was too short for
// the percentile its metric is named after.
//
// Latencies are kept in fixed-size log-bucketed histograms, not sample
// vectors, so the benchmark's own memory does not grow with the work it
// measures (peak RSS is one of its metrics).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the p-th percentile of n samples (0 when n is 0):
/// the smallest rank with at least p% of the samples at or below it. The
/// epsilon keeps p * n / 100 from rounding up past an exact integer.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(rank < 1 ? 1 : static_cast<std::size_t>(rank), 1, n);
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) { return n - nearest_rank(n, p); }

/// Highest of p99.9 / p99 / p90 / p50 with at least kMinBeyond samples
/// above it; 0 when even the median lacks them.
inline double highest_supported(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0})
    if (samples_beyond(n, p) >= kMinBeyond) return p;
  return 0;
}

/// Latency histogram from 100 ns to ~125 s with buckets kRatio wide, so a
/// percentile read from it is within half a bucket (0.25%) of the sample's
/// value. Values outside the range land in the end buckets; the exact
/// minimum and maximum are kept, answer the first and last rank, and bound
/// every other answer.
class Histogram {
 public:
  static constexpr double kMinMs = 1e-4;
  static constexpr double kRatio = 1.005;
  static constexpr std::size_t kBuckets = 4200;  // kMinMs * kRatio^4200 ~ 125 s

  void add(double ms) {
    ++buckets_[index(ms)];
    ++count_;
    min_ = std::min(min_, ms);
    max_ = std::max(max_, ms);
  }

  std::size_t count() const { return count_; }

  /// Nearest-rank p-th percentile (0 when empty).
  double percentile(double p) const {
    const std::size_t rank = nearest_rank(count_, p);
    if (rank == 0) return 0;
    if (rank == 1) return min_;
    if (rank == count_) return max_;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return std::clamp(kMinMs * std::pow(kRatio, i + 0.5), min_, max_);
    }
    return max_;
  }

 private:
  static std::size_t index(double ms) {
    if (!(ms > kMinMs)) return 0;
    const double i = std::log(ms / kMinMs) / std::log(kRatio);
    return std::min(static_cast<std::size_t>(i), kBuckets - 1);
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::size_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = 0;
};

/// One timing's samples: a pooled histogram for the count and the median,
/// and the p99 of every consecutive block of kBlock samples. The reported
/// p99 is the median of the block p99s, so interference that hits a few
/// blocks does not move it; each block's p99 has exactly kMinBeyond samples
/// above it. With no complete block the pooled p99 stands in.
class Timing {
 public:
  static constexpr std::size_t kBlock = 1000;

  void add(double ms) {
    pooled_.add(ms);
    block_.add(ms);
    if (block_.count() == kBlock) {
      block_p99_.push_back(block_.percentile(99));
      block_ = Histogram{};
    }
  }

  const Histogram& pooled() const { return pooled_; }
  const std::vector<double>& block_p99() const { return block_p99_; }

 private:
  Histogram pooled_, block_;
  std::vector<double> block_p99_;
};

/// Median of a small set of values (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median and p99 of one timing, with its sample count.
struct Summary {
  std::size_t n = 0;
  std::size_t blocks = 0;  // complete kBlock-sample blocks behind the p99
  double p50 = 0;
  double p99 = 0;
  double tail_level = 0;  // highest_supported(n)

  /// The p99 has the samples behind it that its name promises.
  bool p99_supported() const { return blocks > 0; }
};

inline Summary summarize(const Timing& t) {
  Summary s;
  s.n = t.pooled().count();
  s.blocks = t.block_p99().size();
  s.p50 = t.pooled().percentile(50);
  s.p99 = s.blocks > 0 ? median(t.block_p99()) : t.pooled().percentile(99);
  s.tail_level = highest_supported(s.n);
  return s;
}

}  // namespace perfbench
