// mbtls_perfbench: one workload of the end-to-end mbTLS benchmark.
//
//   mbtls_perfbench --workload bulk|rpc|connect --seed N --seconds S
//                   --trace 0|1 [--revision REV]
//
// Workloads (all closed-loop, two clients, auto crypto backend):
//   bulk     two long-lived sessions; each client downloads 256 KiB objects of
//            the seeded stream, 16 KiB records, server refilling on the
//            stream's writable edge. The Fig. 7 data plane.
//   rpc      two persistent sessions; ~200 B HTTP GET, the §5 header-
//            insertion proxy in the middlebox, 1 KiB response body.
//   connect  one connection per operation: dial, mbTLS handshake (one full
//            in four, the rest resumed by session ID), one rpc request,
//            close_notify, close.
// bulk and rpc spend 60% of --seconds in a handshake phase that runs the
// connect pattern, so every workload reports the handshake metrics from its
// own run; the two phases alternate in kRounds rounds.
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the workload twice on fresh rigs, untraced then traced, for
// half the time each, and reports the per-layer metrics of the traced run
// plus the tracing overhead on the workload's headline metric.
//
// Output: a host line, a table of every metric with unit and sample count,
// then (last line) one JSON object {correct, attempted, failed, metrics}.
// Exit status 1 when any correctness check failed, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rig.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using std::chrono::milliseconds;

constexpr int kSetupRuns = 21;         // set-ups per run; setup_s is their median
constexpr double kWarmupSeconds = 0.3;  // closed loop running, not yet measured
// A window's measured time is cut into this many equal sub-windows; rates
// are the median over them, so a burst of interference from outside the
// process that hits one or two sub-windows does not move the result.
constexpr int kSubWindows = 6;
// bulk and rpc: share of the run for their own operations. The rest goes to
// the handshake phase, long enough at ~180 full handshakes/s for three
// 1000-sample blocks behind the full-handshake p99 at --seconds 36.
constexpr double kOwnShare = 0.4;
// bulk and rpc alternate their own phase and the handshake phase this many
// times, so each metric samples the whole run rather than one stretch of
// it: the host's speed drifts over seconds, and a tail latency moves with
// it more than a median does.
constexpr int kRounds = 3;
constexpr milliseconds kDrainTimeout{20'000};

struct Args {
  Workload workload = Workload::kBulk;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string revision = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload_name = value;
      if (value == "bulk") {
        a.workload = Workload::kBulk;
      } else if (value == "rpc") {
        a.workload = Workload::kRpc;
      } else if (value == "connect") {
        a.workload = Workload::kConnect;
      } else {
        return std::nullopt;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds || !have_trace)
    return std::nullopt;
  return a;
}

// ------------------------------------------------------------ measurement

/// Counter values and loop CPU at one instant.
struct Snap {
  Clock::time_point t;
  std::array<std::uint64_t, kCtrCount> c{};
  std::array<std::uint64_t, 3> cpu{};
  mbtls::mb::CacheStats cert;
};

Snap snap(Rig& rig) {
  Snap s;
  s.t = Clock::now();
  for (std::size_t i = 0; i < kCtrCount; ++i) s.c[i] = rig.counters().get(i);
  for (const Party p : {kClient, kMbox, kServer}) s.cpu[p] = rig.cpu_ns(p);
  s.cert = rig.cert_stats();
  return s;
}

double seconds_between(const Snap& x, const Snap& y) {
  return std::chrono::duration<double>(y.t - x.t).count();
}
double delta(const Snap& x, const Snap& y, std::size_t i) {
  return static_cast<double>(y.c[i] - x.c[i]);
}
double cpu_s(const Snap& x, const Snap& y, Party p) {
  return static_cast<double>(y.cpu[p] - x.cpu[p]) / 1e9;
}

/// A measured window: one or more segments, each the snaps taken at the
/// edges of its sub-windows while the closed loop ran, and the latencies the
/// clients recorded inside the segments.
struct Window {
  std::vector<std::vector<Snap>> segments;
  ClientLog log;

  /// Sum over the segments of f(first snap, last snap).
  template <typename F>
  double sum(F f) const {
    double total = 0;
    for (const auto& seg : segments) total += f(seg.front(), seg.back());
    return total;
  }
  double seconds() const { return sum(seconds_between); }
  double delta(std::size_t i) const {
    return sum([i](const Snap& x, const Snap& y) { return perfbench::delta(x, y, i); });
  }
  double cpu_s(Party p) const {
    return sum([p](const Snap& x, const Snap& y) { return perfbench::cpu_s(x, y, p); });
  }

  /// Median over every segment's sub-windows of rate(first snap, last snap).
  template <typename Rate>
  double sub_median(Rate rate) const {
    std::vector<double> v;
    for (const auto& seg : segments)
      for (std::size_t k = 0; k + 1 < seg.size(); ++k) v.push_back(rate(seg[k], seg[k + 1]));
    return median(std::move(v));
  }
};

struct RunResult {
  Window main;       // the workload's own operations
  Window handshake;  // connect: the same window; bulk/rpc: the handshake phase
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::uint64_t resumed_all_three = 0, resumptions_scheduled = 0;
  std::uint64_t backlog_max = 0;
};

void sleep_s(double s) { std::this_thread::sleep_for(std::chrono::duration<double>(s)); }

/// Runs the workload's phases on an established rig, then stops it and
/// checks every party's view of every handshake. bulk and rpc give
/// kOwnShare of `seconds` to their own operations and the rest to the
/// handshake phase, in kRounds alternating rounds.
RunResult run_workload(Rig& rig, Workload w, double seconds) {
  RunResult r;
  auto fail = [&](const std::string& why) {
    ++r.attempted;
    ++r.failed;
    r.errors.push_back(why);
  };
  // One segment of closed loop: warm up, measure `secs` in `sub_windows`
  // equal parts, then let every client finish the operation it is in.
  // False when the clients did not drain.
  auto measure = [&](Window& win, bool connect_mode, double secs, int sub_windows) {
    rig.begin(connect_mode);
    sleep_s(kWarmupSeconds);
    rig.open_window();
    std::vector<Snap> seg{snap(rig)};
    for (int k = 0; k < sub_windows; ++k) {
      sleep_s(secs / sub_windows);
      if (k + 1 == sub_windows) rig.close_window();
      seg.push_back(snap(rig));
    }
    win.segments.push_back(std::move(seg));
    const bool drained = rig.finish(kDrainTimeout);
    if (!drained) fail("clients did not drain");
    return drained;
  };
  const bool connect = w == Workload::kConnect;
  bool ok = true;
  if (connect) {
    if (!rig.close_sessions(kDrainTimeout)) fail("set-up sessions did not close");
    ok = measure(r.main, /*connect_mode=*/true, seconds, kSubWindows);
  } else {
    // The set-up left both sessions open for the first round.
    constexpr int kPerSegment = kSubWindows / kRounds;
    for (int round = 0; ok && round < kRounds; ++round) {
      if (round > 0 && !rig.open_sessions(kDrainTimeout)) {
        fail("sessions did not reopen");
        ok = false;
        break;
      }
      ok = measure(r.main, /*connect_mode=*/false, seconds * kOwnShare / kRounds, kPerSegment);
      if (ok && !rig.close_sessions(kDrainTimeout)) fail("sessions did not close");
      ok = ok && measure(r.handshake, /*connect_mode=*/true,
                         seconds * (1 - kOwnShare) / kRounds, kPerSegment);
    }
  }
  if (ok && !rig.close_sessions(kDrainTimeout)) fail("connections did not close");
  rig.stop();
  // Each mode's log holds every segment of that mode.
  r.main.log = rig.take_client_log(connect);
  if (connect) {
    r.handshake = r.main;
  } else {
    r.handshake.log = rig.take_client_log(/*connect_mode=*/true);
  }
  for (const ClientLog* log : {&r.main.log, connect ? nullptr : &r.handshake.log}) {
    if (!log) continue;
    r.attempted += log->attempted;
    r.failed += log->failed;
    r.errors.insert(r.errors.end(), log->errors.begin(), log->errors.end());
  }
  if (!ok) {
    if (r.handshake.segments.empty()) r.handshake = r.main;  // keep the report computable
    return r;
  }
  r.backlog_max = rig.counters().mbox_backlog_max.load();
  std::vector<std::string> peer_errors;
  const std::uint64_t peer_failed = rig.check_peers(peer_errors, r.resumed_all_three);
  r.resumptions_scheduled = rig.scheduled_resumptions();
  r.failed += peer_failed;
  r.attempted = std::max(r.attempted, r.failed);
  r.errors.insert(r.errors.end(), peer_errors.begin(), peer_errors.end());
  return r;
}

struct Setup {
  std::unique_ptr<Identities> ids;
  std::unique_ptr<Rig> rig;
};

/// Identities, three started loop tiers, and both clients' first sessions
/// established through the middlebox. Returns the rig or null on failure.
Setup set_up(const Args& a, bool traced, double* seconds_taken) {
  const auto t0 = Clock::now();
  Setup s;
  s.ids = std::make_unique<Identities>(make_identities());
  s.rig = std::make_unique<Rig>(a.workload, a.seed, *s.ids, traced);
  s.rig->start();
  const bool ok = s.rig->open_sessions(milliseconds(10'000));
  if (seconds_taken) *seconds_taken = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!ok) s.rig.reset();
  return s;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
  std::string note;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void add_timing(std::vector<Metric>& out, const std::string& stem, const Timing& ms) {
  const Summary s = summarize(ms);
  char note[128];
  if (s.p99_supported()) {
    std::snprintf(note, sizeof(note), "median of %zu block p99s (highest supported: p%g)",
                  s.blocks, s.tail_level);
  } else {
    std::snprintf(note, sizeof(note), "p99 lacks %zu samples beyond it; highest supported p%g",
                  kMinBeyond, s.tail_level);
  }
  out.push_back({stem + "_p50", s.p50, "ms", s.n, ""});
  out.push_back({stem + "_p99", s.p99, "ms", s.n, note});
}

/// Application bytes the clients moved (both directions) in a window.
double app_bytes(const Window& w) { return w.delta(kRxBytes) + w.delta(kTxBytes); }

// The end-to-end rates, each the median over the window's sub-windows.
double goodput_gbps(const Window& w) {
  return w.sub_median([](const Snap& x, const Snap& y) {
    return delta(x, y, kRxBytes) * 8 / seconds_between(x, y) / 1e9;
  });
}
double mbox_capacity_gbps(const Window& w) {
  return w.sub_median([](const Snap& x, const Snap& y) {
    return ratio((delta(x, y, kRxBytes) + delta(x, y, kTxBytes)) * 8 / 1e9, cpu_s(x, y, kMbox));
  });
}
double per_second(const Window& w, Ctr c) {
  return w.sub_median(
      [c](const Snap& x, const Snap& y) { return delta(x, y, c) / seconds_between(x, y); });
}

/// The figure tracing overhead is judged on, per workload.
double headline(Workload w, const RunResult& r) {
  switch (w) {
    case Workload::kBulk: return goodput_gbps(r.main);
    case Workload::kRpc: return per_second(r.main, kOpsDone);
    case Workload::kConnect: return per_second(r.main, kHandshakes);
  }
  return 0;
}

std::vector<Metric> end_to_end(const RunResult& r, double setup_s, std::size_t setup_runs) {
  const Window& m = r.main;
  const Window& h = r.handshake;
  std::vector<Metric> out;
  out.push_back({"setup_s", setup_s, "s", setup_runs, "median of the run's set-ups"});
  out.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", 1, ""});
  const double attempted = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  out.push_back({"success_ratio", 1.0 - static_cast<double>(r.failed) / attempted, "ratio",
                 r.attempted, "1 - error_ratio"});
  const std::size_t ops = static_cast<std::size_t>(m.delta(kOpsDone));
  out.push_back({"goodput_gbps", goodput_gbps(m), "Gbps", ops,
                 "client-decrypted bytes / wall; every rate is the median of " +
                     std::to_string(kSubWindows) + " sub-windows"});
  out.push_back({"mbox_capacity_gbps", mbox_capacity_gbps(m), "Gbps", ops,
                 "app bits / mbox loop CPU s"});
  out.push_back({"requests_per_s", per_second(m, kOpsDone), "1/s", ops, ""});
  add_timing(out, "request_ms", m.log.requests);
  out.push_back({"handshakes_per_s", per_second(h, kHandshakes), "1/s",
                 static_cast<std::size_t>(h.delta(kHandshakes)), ""});
  add_timing(out, "handshake_full_ms", h.log.hs_full);
  add_timing(out, "handshake_resumed_ms", h.log.hs_resumed);
  return out;
}

std::vector<Metric> per_layer(Workload w, const RunResult& base, const RunResult& t,
                              double aead_gbps) {
  const Window& m = t.main;
  const Window& h = t.handshake;
  const auto n = [](double v) { return static_cast<std::size_t>(v); };
  std::vector<Metric> out;
  const double wall = m.seconds();
  out.push_back({"net.mbox.busy_ratio", m.cpu_s(kMbox) / wall, "ratio", 1, "loop CPU / wall"});
  out.push_back({"net.client.busy_ratio", m.cpu_s(kClient) / wall, "ratio", 1, ""});
  out.push_back({"net.server.busy_ratio", m.cpu_s(kServer) / wall, "ratio", 1, ""});
  out.push_back({"net.mbox.cpu_ns_per_kib", ratio(m.cpu_s(kMbox) * 1e9, app_bytes(m) / 1024),
                 "ns", n(app_bytes(m) / 1024), ""});
  out.push_back({"net.mbox.cpu_us_per_request", ratio(m.cpu_s(kMbox) * 1e6, m.delta(kOpsDone)),
                 "us", n(m.delta(kOpsDone)), ""});
  out.push_back({"net.mbox.cpu_us_per_handshake",
                 ratio(h.cpu_s(kMbox) * 1e6, h.delta(kHandshakes)), "us",
                 n(h.delta(kHandshakes)), "handshake phase"});
  out.push_back({"net.mbox.send_calls_per_record",
                 ratio(m.delta(kMboxSendCalls), m.delta(kMboxRecords)), "count",
                 n(m.delta(kMboxRecords)), ""});
  out.push_back({"net.mbox.send_ns_per_call",
                 ratio(m.delta(kMboxSendNs), m.delta(kMboxSendCalls)), "ns",
                 n(m.delta(kMboxSendCalls)), ""});
  out.push_back({"net.mbox.bytes_per_delivery",
                 ratio(m.delta(kMboxDeliveredBytes), m.delta(kMboxDeliveries)), "B",
                 n(m.delta(kMboxDeliveries)), ""});
  out.push_back({"net.mbox.backlog_bytes_max", static_cast<double>(t.backlog_max), "B", 1,
                 "whole traced run"});
  out.push_back({"net.connect_ms_p50", h.log.tcp_connect.pooled().percentile(50), "ms",
                 h.log.tcp_connect.pooled().count(), "handshake phase"});
  const double records = m.delta(kMboxRecords);
  out.push_back({"mbtls.mbox.handler_ns_per_record", ratio(m.delta(kMboxHandlerNs), records),
                 "ns", n(records), "span total"});
  out.push_back({"mbtls.mbox.handler_self_ns_per_record",
                 ratio(m.delta(kMboxHandlerNs) - m.delta(kMboxHandlerSendNs), records), "ns",
                 n(records), "span self: handler minus its send() children"});
  out.push_back({"mbtls.mbox.aead_bound_share",
                 ratio(mbox_capacity_gbps(base.main), aead_gbps), "ratio", 1,
                 "untraced mbox_capacity_gbps / crypto.aead_reprotect_gbps"});
  const char* party_names[] = {"client", "mbox", "server"};
  for (const Party p : {kClient, kMbox, kServer}) {
    for (const bool resumed : {false, true}) {
      const double count = h.delta(kHsCount + hs_slot(p, resumed));
      out.push_back({std::string("mbtls.") + party_names[p] + ".handshake_cpu_ms_" +
                         (resumed ? "resumed" : "full"),
                     ratio(h.delta(kHsNs + hs_slot(p, resumed)) / 1e6, count), "ms", n(count),
                     "feed time until established"});
    }
  }
  out.push_back({"mbtls.resumed_ratio",
                 ratio(static_cast<double>(t.resumed_all_three),
                       static_cast<double>(t.resumptions_scheduled)),
                 "ratio", t.resumptions_scheduled, "resumed at all three / scheduled"});
  out.push_back({"mbtls.cache.hit_ratio", ratio(h.delta(kCacheHits), h.delta(kCacheLookups)),
                 "ratio", n(h.delta(kCacheLookups)), "server + mbox session caches"});
  out.push_back({"mbtls.cache.lookup_us",
                 ratio(h.delta(kCacheLookupNs) / 1e3, h.delta(kCacheLookups)), "us",
                 n(h.delta(kCacheLookups)), ""});
  const double cert_hits = h.sum([](const Snap& x, const Snap& y) {
    return static_cast<double>(y.cert.hits - x.cert.hits);
  });
  const double cert_all = cert_hits + h.sum([](const Snap& x, const Snap& y) {
    return static_cast<double>(y.cert.misses - x.cert.misses);
  });
  out.push_back({"x509.cert_pool.hit_ratio", ratio(cert_hits, cert_all), "ratio", n(cert_all),
                 ""});
  out.push_back({"x509.cert_pool.intern_us",
                 ratio(h.delta(kCertInternNs) / 1e3, h.delta(kCertInterns)), "us",
                 n(h.delta(kCertInterns)), ""});
  out.push_back({"crypto.aead_reprotect_gbps", aead_gbps, "Gbps", 1,
                 "in-process open_into + seal_into, 16 KiB"});
  out.push_back({"mbox.proxy_us_per_request",
                 ratio(m.delta(kProxyNs) / 1e3, m.delta(kProxyRequests)), "us",
                 n(m.delta(kProxyRequests)), "wrapped Processor"});
  out.push_back({"http.parse_us_per_request",
                 ratio(m.delta(kParseNs) / 1e3, m.delta(kParseRequests)), "us",
                 n(m.delta(kParseRequests)), "server RequestParser::feed"});
  out.push_back({"trace.overhead_ratio", ratio(headline(w, base), headline(w, t)), "ratio", 1,
                 "untraced / traced headline"});
  return out;
}

// ----------------------------------------------------------------- output

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void print_host(const Args& a) {
  mbtls::bench::Json host = mbtls::bench::Json::object();
  host.add("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("cpu_model", cpu_model());
  mbtls::bench::add_backend_fields(host);
  host.add("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .add("git_revision", a.revision)
      .add("workload", a.workload_name)
      .add("seed", std::to_string(a.seed));
  std::printf("host: %s\n", host.str().c_str());
}

void print_table(const std::vector<Metric>& metrics) {
  std::printf("  %-40s %16s %-6s %9s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics)
    std::printf("  %-40s %16.6g %-6s %9zu  %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples, m.note.c_str());
}

void print_result(bool correct, const RunResult& r, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: mbtls_perfbench --workload bulk|rpc|connect --seed N --seconds S "
                 "--trace 0|1 [--revision REV]\n");
    return 2;
  }
  const Args& a = *parsed;
  print_host(a);

  std::vector<double> setup_times;
  Setup live;
  for (int i = 0; i < kSetupRuns; ++i) {
    double taken = 0;
    live = Setup{};  // tear the previous rig down before timing the next
    live = set_up(a, /*traced=*/false, &taken);
    if (!live.rig) {
      std::fprintf(stderr, "perfbench: set-up failed: sessions did not establish\n");
      return 1;
    }
    setup_times.push_back(taken);
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", a.workload_name.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  RunResult result;
  std::vector<Metric> metrics;
  if (!a.trace) {
    result = run_workload(*live.rig, a.workload, a.seconds);
    metrics = end_to_end(result, median(setup_times), setup_times.size());
  } else {
    const double aead = aead_reprotect_gbps(0.3);
    const RunResult base = run_workload(*live.rig, a.workload, a.seconds / 2);
    std::printf("untraced half, end to end:\n");
    print_table(end_to_end(base, median(setup_times), setup_times.size()));
    std::printf("traced half, per layer:\n");
    live = Setup{};
    live = set_up(a, /*traced=*/true, nullptr);
    if (!live.rig) {
      std::fprintf(stderr, "perfbench: traced set-up failed\n");
      return 1;
    }
    result = run_workload(*live.rig, a.workload, a.seconds / 2);
    result.attempted += base.attempted;
    result.failed += base.failed;
    result.errors.insert(result.errors.end(), base.errors.begin(), base.errors.end());
    metrics = per_layer(a.workload, base, result, aead);
  }
  live = Setup{};

  print_table(metrics);
  const bool correct = result.failed == 0 && result.errors.empty();
  if (!correct) {
    std::printf("perfbench: %llu of %llu operations failed\n",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    for (const auto& e : result.errors) std::printf("  FAILED: %s\n", e.c_str());
  }
  print_result(correct, result, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
