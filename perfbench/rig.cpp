#include "rig.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "crypto/gcm.h"
#include "http/http.h"
#include "mbox/header_proxy.h"
#include "mbtls/transport.h"

namespace perfbench {

using mbtls::mb::ClientSession;
using mbtls::mb::Middlebox;
using mbtls::mb::MiddleboxBinding;
using mbtls::mb::ServerSession;
using mbtls::mb::SocketBinding;
using mbtls::net::Stream;

namespace {

constexpr const char* kServerName = "perfbench.example";
constexpr const char* kMboxName = "proxy.perfbench.example";
// The header the §5 HeaderInsertionProxy adds; the server checks it.
constexpr const char* kInsertedHeader = "X-Mbtls-Proxy";
constexpr const char* kInsertedValue = "perfbench";
// Not a multiple of the record size, so record boundaries wander over it.
constexpr std::size_t kPatternPeriod = kObjectBytes + 4093;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

void note(std::vector<std::string>& errors, std::string what) {
  if (errors.size() < 8) errors.push_back(std::move(what));
}

/// Times session-cache lookups and counts hits (traced run only).
class TimedSessionCache final : public mbtls::tls::SessionCache {
 public:
  TimedSessionCache(mbtls::tls::SessionCache& inner, Counters& c) : inner_(inner), c_(c) {}

  void store_by_id(const mbtls::tls::SessionState& s) override { inner_.store_by_id(s); }
  std::optional<mbtls::tls::SessionState> lookup_by_id(ByteView id) const override {
    return timed([&] { return inner_.lookup_by_id(id); });
  }
  void store_by_peer(const std::string& peer, const mbtls::tls::SessionState& s) override {
    inner_.store_by_peer(peer, s);
  }
  std::optional<mbtls::tls::SessionState> lookup_by_peer(const std::string& peer) const override {
    return timed([&] { return inner_.lookup_by_peer(peer); });
  }
  void clear() override { inner_.clear(); }
  std::size_t size() const override { return inner_.size(); }

 private:
  template <typename F>
  std::optional<mbtls::tls::SessionState> timed(F&& lookup) const {
    const auto t0 = Clock::now();
    auto found = lookup();
    c_.add(kCacheLookupNs, ns_since(t0));
    c_.add(kCacheLookups, 1);
    if (found) c_.add(kCacheHits, 1);
    return found;
  }

  mbtls::tls::SessionCache& inner_;
  Counters& c_;
};

/// Times certificate interning (traced run only). Hits come from the
/// pool's own counters.
class TimedCertIntern final : public mbtls::tls::CertIntern {
 public:
  TimedCertIntern(mbtls::tls::CertIntern& inner, Counters& c) : inner_(inner), c_(c) {}

  std::shared_ptr<const mbtls::x509::Certificate> intern(ByteView der) override {
    const auto t0 = Clock::now();
    auto cert = inner_.intern(der);
    c_.add(kCertInternNs, ns_since(t0));
    c_.add(kCertInterns, 1);
    return cert;
  }

 private:
  mbtls::tls::CertIntern& inner_;
  Counters& c_;
};

class TimedStream;

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Identities make_identities() {
  return {mbtls::bench::make_identity(kServerName, mbtls::x509::KeyType::kEcdsaP256),
          mbtls::bench::make_identity(kMboxName, mbtls::x509::KeyType::kEcdsaP256)};
}

// ------------------------------------------------------------------ server

/// One accepted server session: answers bulk download requests (the
/// client's index and connection number: check the handshake schedule,
/// stream kObjectBytes of the seeded pattern) and HTTP GETs (parse, check
/// the middlebox's inserted header and the handshake schedule, answer with
/// a 1 KiB body).
struct ServerConn {
  ServerConn(Rig& r, Stream& s) : rig(r), stream(s) {}
  ServerConn(const ServerConn&) = delete;  // stream callbacks hold its address
  ServerConn& operator=(const ServerConn&) = delete;

  void on_data(const std::function<void(ByteView)>& feed, ByteView data) {
    if (!handshake_logged) {
      const auto t0 = Clock::now();
      feed(data);
      hs_ns += ns_since(t0);
      if (session->established()) {
        handshake_logged = true;
        const bool resumed = session->primary().resumed();
        if (rig.traced()) {
          rig.counters().add(kHsNs + hs_slot(kServer, resumed), hs_ns);
          rig.counters().add(kHsCount + hs_slot(kServer, resumed), 1);
        }
      }
    } else {
      feed(data);
    }
    const Bytes app = session->take_app_data();
    if (!app.empty()) serve(app);
  }

  void serve(ByteView app) {
    // A connection carries either bulk requests (a byte below kClients) or
    // HTTP, which starts with a method name; the first byte decides.
    if (!mode_known) {
      http_mode = app[0] >= kClients;
      mode_known = true;
    }
    if (!http_mode) {
      bulk_in.insert(bulk_in.end(), app.begin(), app.end());
      std::size_t at = 0;
      for (; bulk_in.size() - at >= kBulkRequestBytes; at += kBulkRequestBytes) {
        const std::size_t client = bulk_in[at];
        std::uint64_t connection = 0;
        for (std::size_t i = kBulkRequestBytes - 1; i > 0; --i)
          connection = connection << 8 | bulk_in[at + i];
        if (client >= kClients) {
          fail("server: bad bulk request");
          continue;
        }
        check_schedule(client, connection);
        if (!offset_known) offset = rig.stream_offset(client);
        offset_known = true;
        owed += kObjectBytes;
      }
      bulk_in.erase(bulk_in.begin(), bulk_in.begin() + static_cast<std::ptrdiff_t>(at));
      refill();
      return;
    }
    const auto t0 = Clock::now();
    auto requests = parser.feed(app);
    if (rig.traced()) {
      rig.counters().add(kParseNs, ns_since(t0));
      rig.counters().add(kParseRequests, requests.size());
    }
    for (const auto& req : requests) {
      if (rig.workload() != Workload::kBulk &&
          req.headers.get(kInsertedHeader) != std::optional<std::string>(kInsertedValue))
        fail("server: request without the inserted header: " + req.target);
      std::size_t client = 0;
      std::uint64_t connection = 0, n = 0;
      if (!parse_target(req.target, client, connection, n)) {
        fail("server: bad request target " + req.target);
        continue;
      }
      check_schedule(client, connection);
      session->send(rig.response_for(client, n));
    }
    binding->flush();
  }

  /// On the connection's first request, which names the client's connection
  /// number: whether the schedule made this handshake full or resumed.
  void check_schedule(std::size_t client, std::uint64_t connection) {
    if (schedule_checked) return;
    schedule_checked = true;
    const bool resumed = session->primary().resumed();
    if (resumed != rig.resume_scheduled(client, connection)) {
      fail(std::string("server: handshake ") + (resumed ? "resumed" : "was full") +
           " against the schedule");
    } else if (resumed) {
      ++rig.peers_.server_resumed;
    }
  }

  /// Send pattern records until the download is served or the stream pushes
  /// back; on_writable resumes here.
  void refill() {
    while (owed > 0 && session->established() && stream.writable()) {
      const std::size_t n = std::min(kRecordBytes, owed);
      session->send(ByteView(rig.pattern().data() + offset, n));
      offset = (offset + n) % rig.pattern_period();
      owed -= n;
      binding->flush();
    }
  }

  void fail(std::string why) {
    ++rig.peers_.server_failed;
    note(rig.peers_.errors, std::move(why));
  }

  /// "/o/<client>/<connection>/<request>"
  static bool parse_target(const std::string& target, std::size_t& client,
                           std::uint64_t& connection, std::uint64_t& n) {
    if (target.rfind("/o/", 0) != 0) return false;
    const char* end = target.data() + target.size();
    auto r = std::from_chars(target.data() + 3, end, client);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != '/' || client >= kClients) return false;
    r = std::from_chars(r.ptr + 1, end, connection);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != '/') return false;
    r = std::from_chars(r.ptr + 1, end, n);
    return r.ec == std::errc() && r.ptr == end;
  }

  Rig& rig;
  Stream& stream;
  std::unique_ptr<ServerSession> session;
  std::unique_ptr<SocketBinding<ServerSession>> binding;
  mbtls::http::RequestParser parser;
  bool handshake_logged = false;
  bool schedule_checked = false;
  std::uint64_t hs_ns = 0;
  bool mode_known = false, http_mode = false, offset_known = false;
  Bytes bulk_in;  // bulk request bytes not yet a whole request
  std::size_t owed = 0, offset = 0;
};

void Rig::accept_server(Stream& s) {
  auto conn = std::make_unique<ServerConn>(*this, s);
  ServerSession::Options o;
  o.tls.private_key = ids_.server.key;
  o.tls.certificate_chain = ids_.server.chain;
  o.tls.rng_label = "perfbench-server";
  o.tls.rng_seed = mix(seed_, 2'000'000 + server_accepts_++);
  o.tls.session_cache = server_cache_view_ ? server_cache_view_.get() : &server_cache_;
  conn->session = std::make_unique<ServerSession>(std::move(o));
  conn->binding = std::make_unique<SocketBinding<ServerSession>>(*conn->session, s);
  ServerConn* raw = conn.get();
  s.on_data = [raw, feed = std::move(s.on_data)](ByteView d) { raw->on_data(feed, d); };
  s.on_writable = [raw, drain = std::move(s.on_writable)] {
    drain();
    raw->refill();
  };
  s.on_close = [this, raw, closed = std::move(s.on_close)] {
    closed();
    server_loop().post([this, raw] { servers_.erase(raw); });
  };
  servers_.emplace(raw, std::move(conn));
}

// --------------------------------------------------------------- middlebox

/// One spliced middlebox connection pair.
struct MboxConn {
  explicit MboxConn(Rig& r) : rig(r) {}
  MboxConn(const MboxConn&) = delete;  // stream callbacks hold its address
  MboxConn& operator=(const MboxConn&) = delete;

  Rig& rig;
  std::unique_ptr<mbtls::mbox::HeaderInsertionProxy> proxy;
  std::unique_ptr<Middlebox> mbox;
  std::unique_ptr<TimedStream> down_timed, up_timed;
  std::unique_ptr<MiddleboxBinding> binding;
  int open_streams = 2;
  // Traced run: handler time until the join, and the send() time inside the
  // on_data handler running now (it sends on the *other* stream).
  std::uint64_t hs_ns = 0;
  bool joined_logged = false;
  bool in_handler = false;
  std::uint64_t handler_send_ns = 0;
};

namespace {

/// net::Stream decorator around one of the middlebox's two TCP streams
/// (traced run only). Times the on_data handler — the binding's
/// feed + flush, i.e. the middlebox's whole per-delivery work — and every
/// send() it makes, so the handler's self time is handler minus send.
class TimedStream final : public Stream {
 public:
  TimedStream(Stream& inner, MboxConn& conn)
      : inner_(inner),
        tcp_(dynamic_cast<mbtls::net::posix::TcpStream*>(&inner)),
        conn_(conn),
        c_(conn.rig.counters()) {
    // The inner stream's callbacks hold this object's address for its life.
    inner_.on_data = [this](ByteView d) { deliver(d); };
    inner_.on_connect = [this] {
      if (on_connect) on_connect();
    };
    inner_.on_close = [this] {
      if (on_close) on_close();
    };
    inner_.on_error = [this](mbtls::net::SocketError e) {
      if (on_error) on_error(e);
    };
    inner_.on_writable = [this] {
      if (on_writable) on_writable();
    };
  }

  TimedStream(const TimedStream&) = delete;
  TimedStream& operator=(const TimedStream&) = delete;

  void send(ByteView data) override {
    const auto t0 = Clock::now();
    inner_.send(data);
    const std::uint64_t dt = ns_since(t0);
    if (conn_.in_handler) conn_.handler_send_ns += dt;
    if (conn_.joined_logged) {
      c_.add(kMboxSendCalls, 1);
      c_.add(kMboxSendNs, dt);
    }
    if (tcp_ && tcp_->backlog() > c_.mbox_backlog_max.load(std::memory_order_relaxed))
      c_.mbox_backlog_max.store(tcp_->backlog(), std::memory_order_relaxed);
  }
  void close() override { inner_.close(); }
  void reset() override { inner_.reset(); }
  bool established() const override { return inner_.established(); }
  bool closed() const override { return inner_.closed(); }
  bool writable() const override { return inner_.writable(); }
  mbtls::net::SocketError error() const override { return inner_.error(); }

 private:
  void deliver(ByteView data) {
    c_.add(kMboxDeliveries, 1);
    c_.add(kMboxDeliveredBytes, data.size());
    const Middlebox& m = *conn_.mbox;
    const bool handshaking = !conn_.joined_logged;
    const std::uint64_t records0 = m.records_reprotected();
    conn_.handler_send_ns = 0;
    conn_.in_handler = true;
    const auto t0 = Clock::now();
    if (on_data) on_data(data);
    const std::uint64_t dt = ns_since(t0);
    conn_.in_handler = false;
    if (handshaking) {
      conn_.hs_ns += dt;
      if (m.joined()) {
        conn_.joined_logged = true;
        c_.add(kHsNs + hs_slot(kMbox, m.resumed()), conn_.hs_ns);
        c_.add(kHsCount + hs_slot(kMbox, m.resumed()), 1);
      }
      return;
    }
    c_.add(kMboxHandlerNs, dt);
    c_.add(kMboxHandlerSendNs, conn_.handler_send_ns);
    c_.add(kMboxRecords, m.records_reprotected() - records0);
  }

  Stream& inner_;
  mbtls::net::posix::TcpStream* tcp_;
  MboxConn& conn_;
  Counters& c_;
};

}  // namespace

void Rig::accept_mbox(Stream& down) {
  auto conn = std::make_unique<MboxConn>(*this);
  MboxConn* raw = conn.get();
  Middlebox::Options o;
  o.name = kMboxName;
  o.side = Middlebox::Side::kClientSide;
  o.private_key = ids_.mbox.key;
  o.certificate_chain = ids_.mbox.chain;
  o.session_cache = mbox_cache_view_ ? mbox_cache_view_.get() : &mbox_cache_;
  if (workload_ != Workload::kBulk) {
    conn->proxy =
        std::make_unique<mbtls::mbox::HeaderInsertionProxy>(kInsertedHeader, kInsertedValue);
    o.processor = conn->proxy->processor();
    if (traced_) {
      o.processor = [this, raw, inner = std::move(o.processor)](bool c2s, ByteView data) {
        const std::uint64_t seen = raw->proxy->requests_seen();
        const auto t0 = Clock::now();
        Bytes out = inner(c2s, data);
        counters_.add(kProxyNs, ns_since(t0));
        counters_.add(kProxyRequests, raw->proxy->requests_seen() - seen);
        return out;
      };
    }
  }
  conn->mbox = std::make_unique<Middlebox>(std::move(o));
  Stream* d = &down;
  Stream* u = &mbox_loop().dial({0, server_port_, "127.0.0.1"});
  if (traced_) {
    conn->down_timed = std::make_unique<TimedStream>(*d, *conn);
    conn->up_timed = std::make_unique<TimedStream>(*u, *conn);
    d = conn->down_timed.get();
    u = conn->up_timed.get();
  }
  conn->binding = std::make_unique<MiddleboxBinding>(*conn->mbox, *d, *u);
  for (Stream* s : {d, u}) {
    s->on_close = [this, raw, closed = std::move(s->on_close)] {
      closed();
      if (--raw->open_streams > 0) return;
      const Middlebox& m = *raw->mbox;
      if (!m.joined()) {
        ++peers_.mbox_unjoined;
      } else if (m.resumed()) {
        ++peers_.mbox_resumed;
      } else {
        ++peers_.mbox_full;
      }
      mbox_loop().post([this, raw] { mboxes_.erase(raw); });
    };
  }
  mboxes_.emplace(raw, std::move(conn));
}

// ------------------------------------------------------------------ client

/// One closed-loop client on the client loop. In persistent mode it runs
/// operations on one long-lived session: bulk downloads or rpc requests. In
/// connect mode each operation is a whole connection — dial, handshake (one
/// full in kFullEvery, the rest resumed by session ID), one rpc request,
/// close_notify, close.
class ClientDriver {
 public:
  ClientDriver(Rig& rig, std::size_t id) : rig_(rig), id_(id) {}
  ClientDriver(const ClientDriver&) = delete;  // loop callbacks hold its address
  ClientDriver& operator=(const ClientDriver&) = delete;

  void open() {
    connect_mode_ = false;
    dial();
  }

  void begin(bool connect_mode) {
    connect_mode_ = connect_mode;
    running_ = true;
    if (connect_mode_) {
      dial_next();
    } else if (conn_ && conn_->handshake_logged && !conn_->failed) {
      start_op(*conn_);
    } else {
      ++log().attempted;
      ++log().failed;
      note(log().errors, "client " + std::to_string(id_) + ": no session to run on");
      finish();
    }
  }

  void close_session() {
    if (!conn_ || conn_->stream->closed()) return;
    conn_->session->close();
    conn_->binding->flush();
    conn_->stream->close();
  }

  std::uint64_t scheduled_resumptions() const { return scheduled_resumed_; }
  std::uint64_t full_handshakes() const { return full_; }
  std::uint64_t resumed_handshakes() const { return resumed_; }

 private:
  struct Conn {
    std::unique_ptr<ClientSession> session;
    std::unique_ptr<SocketBinding<ClientSession>> binding;
    Stream* stream = nullptr;
    Clock::time_point dialed{}, op_start{};
    std::uint64_t index = 0;  // this client's connection number
    bool resume_scheduled = false;
    bool handshake_logged = false;
    bool in_op = false;
    bool failed = false;
    std::uint64_t hs_ns = 0;
    Bytes expected;         // rpc: the whole response the server must send
    std::size_t received = 0;
    std::size_t object_left = 0, offset = 0;  // bulk: bytes still owed, stream position
  };

  ClientLog& log() { return rig_.client_log(connect_mode_); }

  bool bulk_ops() const { return rig_.workload() == Workload::kBulk && !connect_mode_; }

  void dial() {
    auto c = std::make_unique<Conn>();
    const std::uint64_t k = connections_++;
    c->index = k;
    c->resume_scheduled = rig_.resume_scheduled(id_, k);
    if (c->resume_scheduled) ++scheduled_resumed_;
    c->offset = rig_.stream_offset(id_);
    ClientSession::Options o;
    o.tls.trust_anchors = {mbtls::bench::ca().root()};
    o.tls.server_name = kServerName;
    o.tls.rng_label = "perfbench-client";
    o.tls.rng_seed = mix(rig_.seed(), id_ * 1'000'000 + k);
    o.tls.session_cache = &cache_;
    o.tls.offer_resumption = c->resume_scheduled;
    o.tls.cert_pool = rig_.cert_intern();
    c->session = std::make_unique<ClientSession>(std::move(o));
    Conn* raw = c.get();
    c->dialed = Clock::now();
    c->stream = &rig_.client_loop().dial({0, rig_.mbox_port(), "127.0.0.1"});
    // Installed before the binding, which chains its drain hook after it.
    c->stream->on_connect = [this, raw] {
      record(log().tcp_connect, raw->dialed);
      const auto t0 = Clock::now();
      raw->session->start();
      raw->hs_ns += ns_since(t0);
    };
    c->binding = std::make_unique<SocketBinding<ClientSession>>(*c->session, *c->stream);
    c->stream->on_data = [this, raw, feed = std::move(c->stream->on_data)](ByteView d) {
      on_data(*raw, feed, d);
    };
    c->stream->on_close = [this, raw, closed = std::move(c->stream->on_close)] {
      closed();
      on_closed(*raw);
    };
    conn_ = std::move(c);
  }

  void dial_next() {
    if (rig_.stopping().load(std::memory_order_relaxed)) {
      finish();
      return;
    }
    ++log().attempted;
    dial();
  }

  void on_data(Conn& c, const std::function<void(ByteView)>& feed, ByteView data) {
    if (!c.handshake_logged) {
      const auto t0 = Clock::now();
      feed(data);
      c.hs_ns += ns_since(t0);
      if (c.session->established()) on_handshake(c);
    } else {
      feed(data);
    }
    if (c.failed) return;
    if (c.session->failed()) {
      fail(c, "session failed: " + c.session->error_message());
      return;
    }
    const Bytes app = c.session->take_app_data();
    if (!app.empty()) on_app(c, app);
  }

  void on_handshake(Conn& c) {
    c.handshake_logged = true;
    const bool resumed = c.session->primary().resumed();
    record(resumed ? log().hs_resumed : log().hs_full, c.dialed);
    ++(resumed ? resumed_ : full_);
    rig_.counters().add(kHandshakes, 1);
    if (rig_.traced()) {
      rig_.counters().add(kHsNs + hs_slot(kClient, resumed), c.hs_ns);
      rig_.counters().add(kHsCount + hs_slot(kClient, resumed), 1);
    }
    if (resumed != c.resume_scheduled) {
      fail(c, std::string("client: handshake ") + (resumed ? "resumed" : "was full") +
                  ", schedule says " + (c.resume_scheduled ? "resume" : "full"));
      return;
    }
    if (running_ && connect_mode_) {
      start_op(c);
    } else if (!running_) {
      rig_.established_clients().fetch_add(1, std::memory_order_release);
    }
  }

  void start_op(Conn& c) {
    if (!connect_mode_) {
      if (rig_.stopping().load(std::memory_order_relaxed)) {
        finish();
        return;
      }
      ++log().attempted;
    }
    c.in_op = true;
    c.op_start = Clock::now();
    if (bulk_ops()) {
      c.object_left = kObjectBytes;
      std::array<std::uint8_t, kBulkRequestBytes> req{static_cast<std::uint8_t>(id_)};
      for (std::size_t i = 1; i < kBulkRequestBytes; ++i)
        req[i] = static_cast<std::uint8_t>(c.index >> (8 * (i - 1)));
      c.session->send(ByteView(req.data(), req.size()));
      rig_.counters().add(kTxBytes, req.size());
    } else {
      const std::uint64_t n = requests_++;
      const Bytes req = rig_.request_for(id_, c.index, n);
      c.expected = rig_.response_for(id_, n);
      c.received = 0;
      c.session->send(req);
      rig_.counters().add(kTxBytes, req.size());
    }
    c.binding->flush();
  }

  void on_app(Conn& c, ByteView app) {
    if (!c.in_op) {
      fail(c, "client: data outside an operation");
      return;
    }
    rig_.counters().add(kRxBytes, app.size());
    if (bulk_ops()) {
      if (app.size() > c.object_left) {
        fail(c, "client: download longer than requested");
        return;
      }
      // The server streams the seeded pattern from this session's offset.
      const std::size_t period = rig_.pattern_period();
      for (std::size_t i = 0; i < app.size();) {
        const std::size_t n = std::min(app.size() - i, period - c.offset);
        if (std::memcmp(rig_.pattern().data() + c.offset, app.data() + i, n) != 0) {
          fail(c, "client: bulk stream differs from the seeded stream");
          return;
        }
        i += n;
        c.offset = (c.offset + n) % period;
      }
      c.object_left -= app.size();
      if (c.object_left == 0) op_done(c);
      return;
    }
    // The response is checked byte for byte against what the server was
    // asked to send: status line, headers and the seeded body.
    if (c.received + app.size() > c.expected.size() ||
        std::memcmp(c.expected.data() + c.received, app.data(), app.size()) != 0) {
      fail(c, "client: response differs from the expected response");
      return;
    }
    c.received += app.size();
    if (c.received == c.expected.size()) op_done(c);
  }

  void op_done(Conn& c) {
    c.in_op = false;
    record(log().requests, c.op_start);
    rig_.counters().add(kOpsDone, 1);
    if (connect_mode_) {
      c.session->close();
      c.binding->flush();
      c.stream->close();
    } else {
      start_op(c);
    }
  }

  void fail(Conn& c, std::string why) {
    if (c.failed) return;
    c.failed = true;
    c.in_op = false;
    ++log().failed;
    note(log().errors, "client " + std::to_string(id_) + ": " + why);
    if (connect_mode_ && running_) {
      c.stream->reset();  // on_closed dials the next connection
    } else {
      finish();
    }
  }

  void on_closed(Conn& c) {
    if (running_ && !c.failed && (c.in_op || !c.handshake_logged || !connect_mode_))
      fail(c, "client: connection closed before its operation completed");
    // Destroy on a later loop round: this may run inside the connection's
    // own call stack (fail -> reset -> on_close).
    graveyard_.push_back(std::move(conn_));
    rig_.client_loop().post([this] { graveyard_.clear(); });
    if (running_ && connect_mode_) dial_next();
  }

  void record(Timing& t, Clock::time_point start) {
    if (rig_.in_window(start))
      t.add(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }

  void finish() {
    if (!running_) return;
    running_ = false;
    rig_.done_clients().fetch_add(1, std::memory_order_release);
  }

  Rig& rig_;
  std::size_t id_;
  mbtls::mb::ShardedSessionCache cache_{{.shards = 1, .capacity_per_shard = 8}};
  std::unique_ptr<Conn> conn_;
  std::vector<std::unique_ptr<Conn>> graveyard_;
  std::uint64_t connections_ = 0, requests_ = 0, scheduled_resumed_ = 0;
  std::uint64_t full_ = 0, resumed_ = 0;  // handshakes completed, by kind
  bool connect_mode_ = false, running_ = false;
};

// --------------------------------------------------------------------- rig

Rig::Rig(Workload workload, std::uint64_t seed, const Identities& ids, bool traced)
    : workload_(workload),
      seed_(seed),
      ids_(ids),
      traced_(traced),
      server_({.loops = 1}),
      mbox_({.loops = 1}),
      client_({.loops = 1}) {
  mbtls::crypto::Drbg rng("perfbench-payload", seed);
  pattern_ = rng.bytes(kPatternPeriod);
  pattern_.insert(pattern_.end(), pattern_.begin(),
                  pattern_.begin() + static_cast<std::ptrdiff_t>(kRecordBytes));
  if (traced_) {
    server_cache_view_ = std::make_unique<TimedSessionCache>(server_cache_, counters_);
    mbox_cache_view_ = std::make_unique<TimedSessionCache>(mbox_cache_, counters_);
    cert_view_ = std::make_unique<TimedCertIntern>(cert_pool_, counters_);
  }
  server_port_ = server_.listen(0, [this](std::size_t, Stream& s) { accept_server(s); });
  mbox_port_ = mbox_.listen(0, [this](std::size_t, Stream& s) { accept_mbox(s); });
  for (std::size_t i = 0; i < kClients; ++i)
    clients_.push_back(std::make_unique<ClientDriver>(*this, i));
}

Rig::~Rig() { stop(); }

void Rig::start() {
  server_.start();
  mbox_.start();
  client_.start();
}

void Rig::stop() {
  client_.stop();
  mbox_.stop();
  server_.stop();
}

namespace {
template <typename Pred>
bool wait_for(Pred done, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}
}  // namespace

bool Rig::open_sessions(std::chrono::milliseconds timeout) {
  established_clients_.store(0, std::memory_order_relaxed);
  for (auto& c : clients_) client_.post(0, [d = c.get()] { d->open(); });
  return wait_for(
      [&] { return established_clients_.load(std::memory_order_acquire) == kClients; }, timeout);
}

bool Rig::close_sessions(std::chrono::milliseconds timeout) {
  for (auto& c : clients_) client_.post(0, [d = c.get()] { d->close_session(); });
  return wait_for(
      [&] {
        return client_loop().open_streams() == 0 && mbox_loop().open_streams() == 0 &&
               server_loop().open_streams() == 0;
      },
      timeout);
}

void Rig::begin(bool connect_mode) {
  stopping_.store(false, std::memory_order_relaxed);
  done_clients_.store(0, std::memory_order_relaxed);
  for (auto& c : clients_) client_.post(0, [d = c.get(), connect_mode] { d->begin(connect_mode); });
}

bool Rig::finish(std::chrono::milliseconds timeout) {
  stopping_.store(true, std::memory_order_relaxed);
  return wait_for(
      [&] { return done_clients_.load(std::memory_order_acquire) == kClients; }, timeout);
}

void Rig::open_window() {
  window_start_.store(Clock::now().time_since_epoch().count(), std::memory_order_relaxed);
  recording_.store(true, std::memory_order_release);
}

void Rig::close_window() { recording_.store(false, std::memory_order_release); }

ClientLog Rig::take_client_log(bool connect_mode) {
  // stop() has joined the client loop, so its writes to the log are visible.
  return std::exchange(client_logs_[connect_mode], ClientLog{});
}

std::uint64_t Rig::check_peers(std::vector<std::string>& errors,
                              std::uint64_t& all_three) const {
  std::uint64_t full = 0, resumed = 0, failed = peers_.server_failed;
  for (const auto& c : clients_) {
    full += c->full_handshakes();
    resumed += c->resumed_handshakes();
  }
  for (const auto& e : peers_.errors) note(errors, e);
  if (peers_.mbox_full != full || peers_.mbox_resumed != resumed || peers_.mbox_unjoined != 0) {
    ++failed;
    note(errors, "middlebox full/resumed/unjoined " + std::to_string(peers_.mbox_full) + "/" +
                     std::to_string(peers_.mbox_resumed) + "/" +
                     std::to_string(peers_.mbox_unjoined) + ", clients " +
                     std::to_string(full) + "/" + std::to_string(resumed) + "/0");
  }
  all_three = std::min({resumed, peers_.server_resumed, peers_.mbox_resumed});
  return failed;
}

std::uint64_t Rig::scheduled_resumptions() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) n += c->scheduled_resumptions();
  return n;
}

std::uint64_t Rig::cpu_ns(Party p) const {
  switch (p) {
    case kClient: return client_.cpu_nanos_on(0);
    case kMbox: return mbox_.cpu_nanos_on(0);
    case kServer: return server_.cpu_nanos_on(0);
  }
  return 0;
}

bool Rig::resume_scheduled(std::size_t client, std::uint64_t connection) const {
  if (connection == 0) return false;  // nothing cached yet
  // One full handshake in every group of kFullEvery connections, at a
  // seeded position: a fixed position would let the two clients' full
  // handshakes fall into lockstep (or not) for a whole run, and whether a
  // resumed handshake queues behind the other client's full one on the
  // shared client loop would then change from run to run.
  const std::uint64_t group = (connection - 1) / kFullEvery;
  return (connection - 1) % kFullEvery != mix(mix(seed_, 3000 + client), group) % kFullEvery;
}

std::size_t Rig::stream_offset(std::size_t client) const {
  return mix(seed_, 1000 + client) % pattern_period();
}

Bytes Rig::response_for(std::size_t client, std::uint64_t request) const {
  mbtls::http::Response r;
  r.headers.add("Content-Type", "application/octet-stream");
  const std::size_t at = mix(mix(seed_, client), request) % pattern_period();
  r.body.assign(pattern_.begin() + static_cast<std::ptrdiff_t>(at),
                pattern_.begin() + static_cast<std::ptrdiff_t>(at + kBodyBytes));
  return r.serialize();
}

Bytes Rig::request_for(std::size_t client, std::uint64_t connection,
                       std::uint64_t request) const {
  mbtls::http::Request r;
  r.target = "/o/" + std::to_string(client) + "/" + std::to_string(connection) + "/" +
             std::to_string(request);
  r.headers.add("Host", kServerName);
  r.headers.add("User-Agent", "mbtls-perfbench/1");
  r.headers.add("Accept", "application/octet-stream");
  r.headers.add("Accept-Encoding", "identity");
  r.headers.add("Connection", "keep-alive");
  return r.serialize();
}

mbtls::tls::CertIntern* Rig::cert_intern() {
  return cert_view_ ? cert_view_.get() : static_cast<mbtls::tls::CertIntern*>(&cert_pool_);
}

double aead_reprotect_gbps(double seconds) {
  // Two hop keys, as at a middlebox: open under one, seal under the other.
  // The record alternates keys each pass, so every open authenticates.
  mbtls::crypto::Drbg rng("perfbench-aead", 1);
  const mbtls::crypto::AesGcm keys[2] = {mbtls::crypto::AesGcm(rng.bytes(32)),
                                         mbtls::crypto::AesGcm(rng.bytes(32))};
  const Bytes iv = rng.bytes(mbtls::crypto::AesGcm::kIvSize);
  const Bytes aad = rng.bytes(13);
  Bytes rec = rng.bytes(kRecordBytes + mbtls::crypto::AesGcm::kTagSize);
  const mbtls::MutableByteView plain(rec.data(), kRecordBytes);
  keys[0].seal_into(iv, aad, ByteView(rec.data(), kRecordBytes), rec);
  std::uint64_t records = 0;
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration<double>(seconds);
  while (Clock::now() < until) {
    for (int i = 0; i < 16; ++i, ++records) {
      const auto& in = keys[records % 2];
      const auto& out = keys[(records + 1) % 2];
      if (!in.open_into(iv, aad, rec, plain)) throw std::runtime_error("aead: open failed");
      out.seal_into(iv, aad, plain, rec);
    }
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(records * kRecordBytes) * 8.0 / s / 1e9;
}

}  // namespace perfbench
