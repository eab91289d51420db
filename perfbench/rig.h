// The benchmark's system under test: client LoopGroup -> one client-side
// mb::Middlebox LoopGroup -> server LoopGroup, one loop thread per tier,
// real TCP over 127.0.0.1. The driver thread only posts work to the loops,
// sleeps, and samples counters, so the process runs 3 loop threads plus the
// driver.
//
// Every client is closed-loop: it starts its next operation only when the
// previous one has completed. Two clients run at once, so the middlebox
// never holds more than two sessions (four TCP connections).
//
// Tracing: a traced Rig wraps the layers it calls into — the middlebox's
// two streams (net::Stream decorator), its Processor, the session caches
// (tls::SessionCache decorator) and the certificate pool (tls::CertIntern
// decorator) — and times them, the endpoints' handshake feed calls and the
// server's HTTP parser from outside, into Counters. An untraced Rig installs
// none of these wrappers and counts only what the end-to-end metrics need.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "mbtls/cache.h"
#include "net/posix/loop_group.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using mbtls::Bytes;
using mbtls::ByteView;

enum class Workload { kBulk, kRpc, kConnect };

inline constexpr std::size_t kClients = 2;
inline constexpr std::size_t kRecordBytes = 16 * 1024;  // one full TLS record
inline constexpr std::size_t kObjectBytes = 256 * 1024;  // one bulk download
inline constexpr std::size_t kBodyBytes = 1024;         // one rpc response body
// One bulk download request: the client's index, then its connection number
// as 8 little-endian bytes.
inline constexpr std::size_t kBulkRequestBytes = 9;
inline constexpr std::uint64_t kFullEvery = 4;          // 1 full handshake in 4

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Counters sampled by the driver at the edges of a measured window. Each
/// one is written by a single loop thread and read with relaxed loads.
enum Ctr : std::size_t {
  // Always counted.
  kRxBytes,     // application bytes the clients decrypted and verified
  kTxBytes,     // application bytes the clients sent
  kOpsDone,     // completed operations (download, request or connection)
  kHandshakes,  // client handshakes completed
  // Counted only in the traced run.
  kMboxDeliveries,      // on_data callbacks on the middlebox's streams
  kMboxDeliveredBytes,  // bytes those callbacks carried
  kMboxSendCalls,       // Stream::send calls the middlebox binding made
  kMboxSendNs,          // time inside those calls
  kMboxHandlerNs,       // time in the on_data handler after the join
  kMboxHandlerSendNs,   // the part of kMboxHandlerNs spent in send
  kMboxRecords,         // records the middlebox re-protected in the handler
  kHsNs,                // 6 slots: handshake time per party x {full, resumed}
  kHsCount = kHsNs + 6,
  kCacheLookups = kHsCount + 6,
  kCacheHits,
  kCacheLookupNs,
  kCertInterns,
  kCertInternNs,
  kProxyNs,  // time in the middlebox's Processor
  kProxyRequests,
  kParseNs,  // time in the server's http::RequestParser::feed
  kParseRequests,
  kCtrCount,
};

enum Party : std::size_t { kClient, kMbox, kServer };
inline std::size_t hs_slot(Party p, bool resumed) { return p * 2 + (resumed ? 1 : 0); }

struct Counters {
  std::array<std::atomic<std::uint64_t>, kCtrCount> c{};
  std::atomic<std::uint64_t> mbox_backlog_max{0};

  void add(std::size_t i, std::uint64_t d) { c[i].fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t get(std::size_t i) const { return c[i].load(std::memory_order_relaxed); }
};

/// What the clients saw during one phase. Written on the client loop,
/// read by the driver only after the phase has drained. Latencies count
/// only operations that started and ended inside the open window.
struct ClientLog {
  Timing requests, hs_full, hs_resumed, tcp_connect;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures, for the report
};

/// The server's and middlebox's side of every handshake, checked against
/// the clients' after the loops stop.
struct PeerLog {
  std::uint64_t server_resumed = 0;   // connections the server resumed on schedule
  std::uint64_t server_failed = 0;    // requests that failed a server-side check
  std::uint64_t mbox_full = 0, mbox_resumed = 0, mbox_unjoined = 0;
  std::vector<std::string> errors;
};

struct Identities {
  mbtls::bench::Identity server, mbox;
};
Identities make_identities();

class ClientDriver;
struct ServerConn;
struct MboxConn;

class Rig {
 public:
  /// `traced` selects the decorated layers (see the file comment).
  Rig(Workload workload, std::uint64_t seed, const Identities& ids, bool traced);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void start();

  /// Each client dials one session and the call returns once both are
  /// established (or `timeout` passes; returns false then).
  bool open_sessions(std::chrono::milliseconds timeout);
  /// close_notify + FIN on the clients' open sessions; waits until every
  /// stream of every tier has closed.
  bool close_sessions(std::chrono::milliseconds timeout);

  /// Start closed-loop operations on every client. Persistent mode reuses
  /// the open sessions (bulk downloads or rpc requests); connect mode makes
  /// one connection per operation.
  void begin(bool connect_mode);
  /// Ask the clients to stop after their current operation and wait until
  /// they have. Returns false on timeout.
  bool finish(std::chrono::milliseconds timeout);
  /// Latencies are recorded only between open_window() and close_window().
  void open_window();
  void close_window();
  /// The clients keep one log per mode (persistent, connect) for the
  /// rig's lifetime, so a mode's phases add up. Take a log only once the
  /// loops have stopped.
  ClientLog take_client_log(bool connect_mode);
  ClientLog& client_log(bool connect_mode) { return client_logs_[connect_mode]; }  // client loop only

  /// Joins the loop threads. Reading logs and checking peers is legal after.
  void stop();
  /// Cross-checks the three parties' handshake outcomes against the
  /// clients' schedule. Adds a line to `errors` per failed check and
  /// returns how many checks failed; `all_three` gets the number of
  /// resumptions every party performed.
  std::uint64_t check_peers(std::vector<std::string>& errors, std::uint64_t& all_three) const;
  /// Resumptions the clients scheduled over the rig's lifetime.
  std::uint64_t scheduled_resumptions() const;

  Counters& counters() { return counters_; }
  std::uint64_t cpu_ns(Party p) const;
  mbtls::mb::CacheStats cert_stats() const { return cert_pool_.stats(); }
  bool traced() const { return traced_; }

  // Internals shared with the tier implementations in rig.cpp.
  Workload workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }
  const Bytes& pattern() const { return pattern_; }
  std::size_t pattern_period() const { return pattern_.size() - kRecordBytes; }
  /// Whether a client's `connection`-th connection (0 = its set-up
  /// session, always full) should resume: one in kFullEvery is full.
  bool resume_scheduled(std::size_t client, std::uint64_t connection) const;
  std::size_t stream_offset(std::size_t client) const;
  Bytes request_for(std::size_t client, std::uint64_t connection, std::uint64_t request) const;
  /// The server's whole answer to a request: status line, headers and a
  /// kBodyBytes slice of the seeded pattern.
  Bytes response_for(std::size_t client, std::uint64_t request) const;
  mbtls::tls::CertIntern* cert_intern();
  std::atomic<bool>& stopping() { return stopping_; }
  std::atomic<std::size_t>& done_clients() { return done_clients_; }
  std::atomic<std::size_t>& established_clients() { return established_clients_; }
  /// Whether an operation spanning [start, now] falls inside the window.
  bool in_window(Clock::time_point start) const {
    return recording_.load(std::memory_order_acquire) &&
           start.time_since_epoch().count() >= window_start_.load(std::memory_order_relaxed);
  }
  mbtls::net::Port mbox_port() const { return mbox_port_; }
  mbtls::net::posix::EpollLoop& client_loop() { return client_.loop(0); }
  mbtls::net::posix::EpollLoop& mbox_loop() { return mbox_.loop(0); }
  mbtls::net::posix::EpollLoop& server_loop() { return server_.loop(0); }

 private:
  void accept_server(mbtls::net::Stream& s);
  void accept_mbox(mbtls::net::Stream& down);

  Workload workload_;
  std::uint64_t seed_;
  const Identities& ids_;
  bool traced_;
  Bytes pattern_;  // seeded payload, extended by kRecordBytes for wrap-free slices
  Counters counters_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> done_clients_{0};
  std::atomic<std::size_t> established_clients_{0};
  std::atomic<bool> recording_{false};
  std::atomic<Clock::rep> window_start_{0};

  // Shared control plane: one cache per tier, shared by all its sessions.
  mbtls::mb::ShardedSessionCache server_cache_, mbox_cache_;
  mbtls::mb::CertPool cert_pool_;
  std::unique_ptr<mbtls::tls::SessionCache> server_cache_view_, mbox_cache_view_;
  std::unique_ptr<mbtls::tls::CertIntern> cert_view_;

  mbtls::net::posix::LoopGroup server_, mbox_, client_;
  mbtls::net::Port server_port_ = 0, mbox_port_ = 0;

  // Loop-thread-owned state; declared after the loops so it is destroyed
  // first, once stop() has joined the threads.
  std::array<ClientLog, 2> client_logs_;  // indexed by connect mode
  PeerLog peers_;
  std::map<ServerConn*, std::unique_ptr<ServerConn>> servers_;
  std::map<MboxConn*, std::unique_ptr<MboxConn>> mboxes_;
  std::vector<std::unique_ptr<ClientDriver>> clients_;
  std::uint64_t server_accepts_ = 0;

  friend struct ServerConn;
};

/// In-process AES-256-GCM open_into + seal_into of 16 KiB records on the
/// active crypto backend: the middlebox's re-protection ceiling, in
/// application Gbps.
double aead_reprotect_gbps(double seconds);

}  // namespace perfbench
