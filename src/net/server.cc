#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

#include "common/expects.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace facsp::net {

namespace {

constexpr int kBacklog = 64;
constexpr std::size_t kReadBuf = 64 * 1024;
constexpr std::size_t kWriteBuf = 256 * 1024;
/// Pause reading a connection whose pending responses exceed this.
constexpr std::size_t kWriteHighWatermark = 192 * 1024;

static_assert(kReadBuf >= kHeaderSize + kMaxPayload,
              "the read buffer must hold at least one max frame");
static_assert(kWriteBuf >= kResponseFrameSize &&
                  kWriteHighWatermark <= kWriteBuf,
              "write buffer/high-watermark sizes are invalid");

struct LoopMetrics {
  obs::Counter& accepted;
  obs::Counter& closed;
  obs::Counter& frames_in;
  obs::Counter& frames_out;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& write_calls;
  obs::Counter& decode_errors;
  obs::Counter& accept_exhausted;
  obs::Counter& orphaned;
  obs::Counter& pauses;
  obs::Counter& timeouts;
  obs::Counter& scrapes;
  obs::Gauge& connections;

  static LoopMetrics& get() {
    obs::Registry& r = obs::Registry::instance();
    static LoopMetrics m{
        r.counter("net.accepted"),      r.counter("net.closed"),
        r.counter("net.frames_in"),     r.counter("net.frames_out"),
        r.counter("net.bytes_in"),      r.counter("net.bytes_out"),
        r.counter("net.write_calls"),   r.counter("net.decode_errors"),
        r.counter("net.accept_exhausted"),
        r.counter("net.orphaned_responses"),
        r.counter("net.backpressure_pauses"), r.counter("net.timeouts"),
        r.counter("net.scrapes"),       r.gauge("net.connections"),
    };
    return m;
  }
};

NetServer* g_signal_target = nullptr;

void stop_on_signal(int) {
  // Async-signal-safe: request_stop only writes one byte to a pipe.
  if (g_signal_target != nullptr) g_signal_target->request_stop();
}

}  // namespace

void NetConfig::validate() const {
  require_finite("net", {max_skew_s, read_timeout_s, write_timeout_s,
                         idle_timeout_s, flush_idle_s});
  if (port < 0 || port > 65535)
    throw ConfigError("net: port must be in [0, 65535]");
  if (telemetry_port < -1 || telemetry_port > 65535)
    throw ConfigError("net: telemetry port must be in [-1, 65535]");
  if (pending_cap == 0) throw ConfigError("net: pending cap must be > 0");
  if (!(max_skew_s > 0.0))
    throw ConfigError("net: max skew must be > 0");
  if (read_timeout_s <= 0.0 || write_timeout_s <= 0.0 ||
      idle_timeout_s <= 0.0 || flush_idle_s <= 0.0)
    throw ConfigError("net: timeouts must be > 0");
  if (metrics_interval_s < 0)
    throw ConfigError("net: metrics interval must be >= 0");
  if (metrics_interval_s > 0 && metrics_path.empty())
    throw ConfigError("net: metrics interval needs a metrics path");
}

struct NetServer::Connection {
  UniqueFd fd;
  std::uint64_t id = 0;
  ByteQueue in;
  ByteQueue out;
  double last_read_s = 0.0;      ///< last byte received
  double last_progress_s = 0.0;  ///< last byte written out
  bool open = false;
  bool paused = false;    ///< reads disabled (write backlog)
  bool closing = false;   ///< flush out, then close
  bool want_write = false;
  bool dirty = false;     ///< queued responses wait for flush_dirty()

  Connection() : in(kReadBuf), out(kWriteBuf) {}
};

NetServer::NetServer(const serve::ServerConfig& serve_config,
                     const NetConfig& net)
    : net_(net),
      service_(serve_config, net.pending_cap, net.reserve_seconds,
               net.max_skew_s) {
  net_.validate();
  listen_fd_ = listen_tcp(net_.host, static_cast<std::uint16_t>(net_.port),
                          kBacklog);
  if (net_.telemetry_port >= 0)
    telemetry_fd_ = listen_tcp(
        net_.host, static_cast<std::uint16_t>(net_.telemetry_port), kBacklog);

  poller_.add(listen_fd_.get(), /*read=*/true, /*write=*/false);
  if (telemetry_fd_.valid())
    poller_.add(telemetry_fd_.get(), true, false);
  poller_.add(wake_.read_end.get(), true, false);

  by_fd_.resize(256, nullptr);
  by_id_.reserve(256);
  events_.reserve(64);
  dirty_.reserve(64);
  scrape_scratch_.reserve(4096);

  if (net_.metrics_interval_s > 0) {
    snapshot_ = std::make_unique<obs::SnapshotWriter>(
        net_.metrics_path, net_.metrics_interval_s, obs::Registry::instance());
  }

  AdmissionService::Callbacks cb;
  cb.on_decision = [this](std::uint64_t conn, const cac::AdmissionRequest& req,
                          const cac::AdmissionDecision& d) {
    std::uint8_t payload[kResponsePayloadSize];
    encode_response(req.id, d, payload);
    queue_frame_to(conn, FrameType::kResponse, payload, sizeof(payload));
  };
  cb.on_dropped = [this](std::uint64_t conn, std::uint64_t request_id) {
    std::uint8_t payload[kDroppedPayloadSize];
    encode_dropped(request_id, payload);
    queue_frame_to(conn, FrameType::kDropped, payload, sizeof(payload));
  };
  service_.set_callbacks(std::move(cb));
  if (snapshot_) {
    service_.set_second_hook(
        [this](std::int64_t second, const serve::TelemetryRow&) {
          snapshot_->on_second(second);
        });
  }
}

NetServer::~NetServer() {
  if (g_signal_target == this) route_signals(nullptr);
}

void NetServer::route_signals(NetServer* server) {
  g_signal_target = server;
  struct sigaction sa{};
  sa.sa_handler = server != nullptr ? stop_on_signal : SIG_DFL;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking syscalls return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

std::uint16_t NetServer::admission_port() const {
  return local_port(listen_fd_.get());
}

std::uint16_t NetServer::telemetry_port() const {
  return telemetry_fd_.valid() ? local_port(telemetry_fd_.get()) : 0;
}

double NetServer::now_s() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NetServer::run() {
  running_ = true;
  const double start_wall = now_s();
  double last_sweep = start_wall;
  bool stop_requested = false;

  while (!stop_requested) {
    // Wake at the flush-idle horizon so a quiet wire still closes open
    // batches; the coarse 50 ms floor bounds timer-sweep latency without
    // spinning.
    const int timeout_ms = static_cast<int>(
        std::max(10.0, std::min(50.0, net_.flush_idle_s * 1000.0 / 2.0)));
    poller_.wait(timeout_ms, events_);

    for (const PollEvent& ev : events_) {
      if (ev.fd == wake_.read_end.get()) {
        wake_.drain();
        stop_requested = true;
        continue;
      }
      if (ev.fd == listen_fd_.get()) {
        accept_connections(listen_fd_.get(), /*telemetry=*/false);
        continue;
      }
      if (telemetry_fd_.valid() && ev.fd == telemetry_fd_.get()) {
        accept_connections(telemetry_fd_.get(), /*telemetry=*/true);
        continue;
      }
      Connection* c = ev.fd < static_cast<int>(by_fd_.size())
                          ? by_fd_[static_cast<std::size_t>(ev.fd)]
                          : nullptr;
      if (c == nullptr || !c->open) continue;  // closed earlier this pass
      if (ev.error) {
        close_connection(*c);
        continue;
      }
      if (ev.readable) on_readable(*c);
      if (c->open && ev.writable) on_writable(*c);
    }

    const double now = now_s();
    // Idle flush: no arrival for flush_idle_s with batches open -> decide
    // them now so the tail of a burst is answered promptly.
    if (service_.has_open_batches() && last_submit_wall_ >= 0.0 &&
        now - last_submit_wall_ >= net_.flush_idle_s)
      service_.flush_open_batches();
    flush_dirty();
    if (now - last_sweep >= 0.1) {
      sweep_timeouts(now);
      last_sweep = now;
    }
  }

  drain();
  running_ = false;
}

void NetServer::accept_connections(int listen_fd, bool telemetry) {
  while (true) {
    bool exhausted = false;
    UniqueFd fd = accept_conn(listen_fd, &exhausted);
    if (!fd.valid()) {
      if (exhausted && obs::metrics_enabled())
        LoopMetrics::get().accept_exhausted.add(1);
      return;
    }

    Connection* c;
    if (!free_.empty()) {
      c = free_.back();
      free_.pop_back();
    } else {
      slots_.push_back(std::make_unique<Connection>());
      c = slots_.back().get();
    }
    c->in.clear();
    c->out.clear();
    c->id = next_conn_id_++;
    c->open = true;
    c->paused = false;
    c->closing = telemetry;  // a scrape writes its text, then closes
    c->want_write = false;
    c->last_read_s = c->last_progress_s = now_s();

    if (telemetry) {
      build_scrape(scrape_scratch_);
      // A scrape larger than the write buffer truncates rather than
      // wedges; with default sizes the registry would need thousands of
      // metrics.
      const std::size_t n =
          std::min(scrape_scratch_.size(), c->out.free_space());
      c->out.append(
          reinterpret_cast<const std::uint8_t*>(scrape_scratch_.data()), n);
    }

    const int raw = fd.get();
    c->fd = std::move(fd);
    if (raw >= static_cast<int>(by_fd_.size()))
      by_fd_.resize(static_cast<std::size_t>(raw) + 64, nullptr);
    by_fd_[static_cast<std::size_t>(raw)] = c;
    by_id_[c->id] = c;
    poller_.add(raw, /*read=*/!telemetry, /*write=*/telemetry);
    c->want_write = telemetry;
    ++open_connections_;
    if (obs::metrics_enabled()) {
      LoopMetrics& m = LoopMetrics::get();
      (telemetry ? m.scrapes : m.accepted).add(1);
      m.connections.set(static_cast<std::int64_t>(open_connections_));
    }
    if (telemetry) flush_writes(*c);
  }
}

void NetServer::on_readable(Connection& c) {
  const auto read_start = std::chrono::steady_clock::now();
  std::size_t total = 0;
  while (c.open && !c.paused) {
    std::uint8_t* dst = c.in.reserve(c.in.free_space());
    const std::size_t room = c.in.free_space();
    if (dst == nullptr || room == 0) {
      // Full read buffer without a decodable frame: validate_header
      // bounds every frame well below the buffer, so this is a protocol
      // violation, not congestion.
      send_error(c, WireError::kOversized, 0);
      return;
    }
    const ssize_t n = ::read(c.fd.get(), dst, room);
    if (n > 0) {
      c.in.commit(static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      c.last_read_s = now_s();
      if (!parse_frames(c)) return;  // connection errored/closed
      if (static_cast<std::size_t>(n) < room) break;  // drained the socket
      continue;
    }
    if (n == 0) {  // orderly EOF: answers this read decided still go out
      if (c.dirty) flush_writes(c);
      close_connection(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    close_connection(c);  // ECONNRESET and friends
    return;
  }
  if (total > 0) {
    if (obs::metrics_enabled()) LoopMetrics::get().bytes_in.add(total);
    if (obs::Tracer::enabled())
      obs::Tracer::record("net", "read", obs::Tracer::to_trace_ns(read_start),
                          obs::Tracer::to_trace_ns(
                              std::chrono::steady_clock::now()) -
                              obs::Tracer::to_trace_ns(read_start),
                          static_cast<std::int64_t>(total));
  }
}

bool NetServer::parse_frames(Connection& c) {
  while (c.open && c.in.size() >= kHeaderSize) {
    const FrameHeader h = decode_header(c.in.data());
    const WireError head_err = validate_header(h);
    if (head_err != WireError::kNone) {
      send_error(c, head_err,
                 head_err == WireError::kOversized
                     ? h.len
                     : static_cast<std::uint32_t>(h.type));
      return false;
    }
    if (c.in.size() < kHeaderSize + h.len) return true;  // partial frame
    const std::uint8_t* payload = c.in.data() + kHeaderSize;

    switch (h.type) {
      case FrameType::kRequest:
        handle_request(c, payload, h.len);
        break;
      case FrameType::kFlush: {
        // Barrier: decide everything buffered, answer, then echo the
        // flush on this connection so the client knows it is all out.
        service_.flush_open_batches();
        queue_frame(c, FrameType::kFlush, nullptr, 0);
        break;
      }
      case FrameType::kResponse:
      case FrameType::kError:
      case FrameType::kDropped:
        // Server-to-client frame types are invalid from a client.
        send_error(c, WireError::kBadType,
                   static_cast<std::uint32_t>(h.type));
        return false;
    }
    // An errored connection (closing) must not keep parsing: the error
    // frame is the last thing it ever receives.
    if (!c.open || c.closing) return false;
    c.in.consume(kHeaderSize + h.len);
    if (obs::metrics_enabled()) LoopMetrics::get().frames_in.add(1);
  }
  return c.open;
}

void NetServer::handle_request(Connection& c, const std::uint8_t* payload,
                               std::size_t len) {
  serve::StampedRequest r;
  const WireError err = decode_request(payload, len, r);
  if (err != WireError::kNone) {
    send_error(c, err, 0);
    return;
  }
  AdmissionService::Submit s;
  try {
    s = service_.submit(c.id, r);
  } catch (const ContractViolation&) {
    // Defense in depth: decode validation should make internal
    // preconditions unreachable from the wire, but if one still trips,
    // the blast radius is this connection — never the process.
    send_error(c, WireError::kBadValue, 0);
    return;
  }
  if (s == AdmissionService::Submit::kReordered) {
    send_error(c, WireError::kTimeOrder, 0);
    return;
  }
  if (s == AdmissionService::Submit::kHorizon) {
    // Detail carries the watermark's second so the client can resync.
    const double w = service_.watermark();
    send_error(c, WireError::kHorizon,
               w < 0.0 ? 0 : static_cast<std::uint32_t>(w));
    return;
  }
  last_submit_wall_ = now_s();
  if (first_submit_wall_ < 0.0) first_submit_wall_ = last_submit_wall_;
}

void NetServer::send_error(Connection& c, WireError code,
                           std::uint32_t detail) {
  if (obs::metrics_enabled()) LoopMetrics::get().decode_errors.add(1);
  std::uint8_t payload[kErrorPayloadSize];
  encode_error(code, detail, payload);
  queue_frame(c, FrameType::kError, payload, sizeof(payload));
  c.closing = true;  // flush the error, then close
  flush_writes(c);
}

void NetServer::queue_frame(Connection& c, FrameType type,
                            const std::uint8_t* payload, std::size_t len) {
  std::uint8_t buf[kHeaderSize + kMaxPayload];
  FrameHeader h;
  h.len = static_cast<std::uint32_t>(len);
  h.type = type;
  encode_header(h, buf);
  if (len > 0) std::memcpy(buf + kHeaderSize, payload, len);
  if (!c.out.append(buf, kHeaderSize + len)) {
    // Response backlog overflowed the hard cap: the peer is not reading.
    // Dropping the connection is the contract; its undecided requests (if
    // any) were already answered into this buffer and are lost with it.
    close_connection(c);
    return;
  }
  if (obs::metrics_enabled()) LoopMetrics::get().frames_out.add(1);
  if (c.out.size() <= kWriteHighWatermark) {
    // Coalesce: flush_dirty() writes the whole backlog once per loop pass.
    // A connection waiting for POLLOUT is written by on_writable instead.
    if (!c.want_write && !c.dirty) {
      c.dirty = true;
      dirty_.push_back(&c);
    }
    return;
  }
  if (!c.want_write) flush_writes(c);
  if (c.open && !c.paused && c.out.size() > kWriteHighWatermark) {
    // Backpressure: the peer is not taking the backlog, so stop reading
    // this connection until it drains below half the watermark.
    c.paused = true;
    update_interest(c);
    if (obs::metrics_enabled()) LoopMetrics::get().pauses.add(1);
  }
}

void NetServer::queue_frame_to(std::uint64_t conn_id, FrameType type,
                               const std::uint8_t* payload, std::size_t len) {
  const auto it = by_id_.find(conn_id);
  if (it == by_id_.end() || !it->second->open) {
    // Mid-batch disconnect: the decision outlived its connection.
    if (obs::metrics_enabled()) LoopMetrics::get().orphaned.add(1);
    return;
  }
  queue_frame(*it->second, type, payload, len);
}

void NetServer::flush_dirty() {
  for (Connection* c : dirty_)
    if (c->dirty) flush_writes(*c);
  dirty_.clear();
}

void NetServer::flush_writes(Connection& c) {
  const auto write_start = std::chrono::steady_clock::now();
  c.dirty = false;
  std::size_t total = 0;
  while (c.open && !c.out.empty()) {
    // MSG_NOSIGNAL: a peer that closed with answers still pending makes
    // this EPIPE, which closes its connection, not SIGPIPE the process.
    const ssize_t n =
        ::send(c.fd.get(), c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (obs::metrics_enabled()) LoopMetrics::get().write_calls.add(1);
    if (n > 0) {
      c.out.consume(static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      c.last_progress_s = now_s();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    close_connection(c);
    return;
  }
  if (total > 0 && obs::metrics_enabled())
    LoopMetrics::get().bytes_out.add(total);
  if (total > 0 && obs::Tracer::enabled())
    obs::Tracer::record(
        "net", "write", obs::Tracer::to_trace_ns(write_start),
        obs::Tracer::to_trace_ns(std::chrono::steady_clock::now()) -
            obs::Tracer::to_trace_ns(write_start),
        static_cast<std::int64_t>(total));
  if (!c.open) return;
  if (c.out.empty()) {
    if (c.closing) {
      close_connection(c);
      return;
    }
    const bool was_paused = c.paused;
    c.paused = false;  // backlog gone: resume reads
    if (c.want_write || was_paused) {
      c.want_write = false;
      update_interest(c);
    }
  } else {
    bool changed = false;
    if (c.paused && c.out.size() < kWriteHighWatermark / 2) {
      c.paused = false;  // drained below the low watermark: resume reads
      changed = true;
    }
    if (!c.want_write) {
      c.want_write = true;
      changed = true;
    }
    if (changed) update_interest(c);
  }
}

void NetServer::on_writable(Connection& c) { flush_writes(c); }

void NetServer::update_interest(Connection& c) {
  poller_.modify(c.fd.get(), /*read=*/!c.paused && !c.closing,
                 /*write=*/c.want_write);
}

void NetServer::close_connection(Connection& c) {
  if (!c.open) return;
  const int raw = c.fd.get();
  poller_.remove(raw);
  by_fd_[static_cast<std::size_t>(raw)] = nullptr;
  by_id_.erase(c.id);
  c.fd.reset();
  c.open = false;
  c.dirty = false;
  c.in.clear();
  c.out.clear();
  free_.push_back(&c);
  --open_connections_;
  if (obs::metrics_enabled()) {
    LoopMetrics& m = LoopMetrics::get();
    m.closed.add(1);
    m.connections.set(static_cast<std::int64_t>(open_connections_));
  }
}

void NetServer::sweep_timeouts(double now) {
  for (const auto& slot : slots_) {
    Connection& c = *slot;
    if (!c.open) continue;
    const double quiet_read = now - c.last_read_s;
    const double quiet_write = now - c.last_progress_s;
    const bool mid_frame = c.in.size() > 0;
    const bool backlogged = !c.out.empty();
    if ((mid_frame && quiet_read > net_.read_timeout_s) ||
        (backlogged && quiet_write > net_.write_timeout_s) ||
        (quiet_read > net_.idle_timeout_s &&
         quiet_write > net_.idle_timeout_s)) {
      if (obs::metrics_enabled()) LoopMetrics::get().timeouts.add(1);
      close_connection(c);
    }
  }
}

void NetServer::build_scrape(std::string& out) const {
  out.clear();
  out += "# facsp-telemetry v1\n";
  out += "# seconds_finalized ";
  out += std::to_string(service_.telemetry().size());
  out += "\n";
  out += serve::kTelemetryCsvHeader;
  if (const serve::TelemetryRow* row = service_.latest_row()) {
    std::ostringstream os;
    serve::write_telemetry_row(*row, os);
    out += os.str();
  }
  out += "# metrics\n";
  if (snapshot_ != nullptr) {
    out += snapshot_->latest();
  } else if (obs::metrics_enabled()) {
    std::ostringstream os;
    obs::Registry::instance().write_csv(os);
    out += os.str();
  }
}

void NetServer::drain() {
  // Stop accepting; the listening sockets close before anything else.
  poller_.remove(listen_fd_.get());
  listen_fd_.reset();
  if (telemetry_fd_.valid()) {
    poller_.remove(telemetry_fd_.get());
    telemetry_fd_.reset();
  }

  // Decide everything buffered and seal the telemetry.
  service_.drain();
  flush_dirty();
  drained_wall_ = now_s();
  if (snapshot_) snapshot_->flush();

  // Best-effort response flush: give peers up to a second to take what
  // is already queued, then close regardless.
  const double deadline = now_s() + 1.0;
  while (now_s() < deadline) {
    bool backlog = false;
    for (const auto& slot : slots_)
      if (slot->open && !slot->out.empty()) backlog = true;
    if (!backlog) break;
    poller_.wait(20, events_);
    for (const PollEvent& ev : events_) {
      Connection* c = ev.fd >= 0 && ev.fd < static_cast<int>(by_fd_.size())
                          ? by_fd_[static_cast<std::size_t>(ev.fd)]
                          : nullptr;
      if (c == nullptr || !c->open) continue;
      if (ev.error) {
        close_connection(*c);
        continue;
      }
      if (ev.writable) on_writable(*c);
    }
  }
  for (const auto& slot : slots_)
    if (slot->open) close_connection(*slot);
}

serve::ServerResult NetServer::result() const {
  serve::ServerResult r = service_.result();
  if (first_submit_wall_ >= 0.0 && drained_wall_ > first_submit_wall_)
    r.wall_s = drained_wall_ - first_submit_wall_;
  return r;
}

}  // namespace facsp::net
