// The socket front-end: a single-threaded non-blocking event loop (epoll,
// level-triggered; Linux only — see net/poller.h) hosting
//
//   * the admission port — length-prefixed binary frames (net/frame.h)
//     from any number of connections, accumulated across connections into
//     the serving loop's batching windows by AdmissionService and answered
//     through the zero-alloc decide_batch path.  Malformed input gets one
//     typed error frame and a close, never a crash.
//
//   * the telemetry port — connect, receive a plaintext scrape (latest
//     finalized telemetry row in the exact CSV encoding, plus the metrics
//     registry snapshot), connection closes.  `nc host port` is a client.
//
// Responses are coalesced: a frame is appended to its connection's
// backlog and the connection marked dirty; each loop pass (and drain)
// then makes at most one write() per dirty connection, so a burst of
// decisions costs one syscall, not one per 32-byte frame.  Frame bytes
// and their order per connection are unchanged.  A backlog above the
// write high watermark is written at once, and error frames and the
// telemetry scrape are written immediately.
//
// Robustness model:
//   * bounded per-connection buffers: reads stop (backpressure) while a
//     connection's response backlog stays above the write high watermark
//     after a write, and resume when it drains below half of it;
//   * a global pending cap sheds the oldest undecided request
//     (AdmissionService, kDropped frame, counted in the registry);
//   * per-connection timeouts: a stalled partial frame (read), an
//     undrained response backlog (write), or a silent connection (idle)
//     each reap the connection on the timer sweep;
//   * graceful drain on request_stop() — the signal handlers write one
//     byte to a wake pipe — stops accepting, decides everything buffered,
//     seals the telemetry and pushes the remaining responses out briefly;
//     the caller writes the result files from result().
//
// Steady-state serving allocates nothing: connections and their buffers
// come from a free pool (the first accept of a slot allocates, reuse
// doesn't), frames decode on the stack, and the service's buffers are
// pre-reserved.  bench_net.cc audits the whole loopback path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/admission_service.h"
#include "net/buffer.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "obs/snapshot.h"

namespace facsp::net {

struct NetConfig {
  std::string host = "127.0.0.1";
  /// Admission port; 0 binds an ephemeral port (read admission_port()).
  int port = 0;
  /// Telemetry scrape port; -1 disables, 0 ephemeral.
  int telemetry_port = -1;

  /// Global cap on undecided requests (drop-oldest beyond it).
  std::size_t pending_cap = 8192;

  /// Max simulated seconds an arrival may run ahead of the watermark;
  /// further gets a `horizon` error (see AdmissionService).
  double max_skew_s = AdmissionService::kDefaultMaxSkewS;

  double read_timeout_s = 30.0;   ///< partial frame stalled this long
  double write_timeout_s = 30.0;  ///< backlog made no progress this long
  double idle_timeout_s = 300.0;  ///< no traffic at all this long
  /// Close open batches after this much wall-clock quiet, so the last
  /// requests of a burst are not stranded waiting for the next arrival.
  double flush_idle_s = 0.05;

  /// Flush the metrics registry every this many finalized simulated
  /// seconds to `metrics_path` (0 = off).  The scrape endpoint serves the
  /// latest flushed buffer either way.
  std::int64_t metrics_interval_s = 0;
  std::string metrics_path;

  /// Telemetry row / latency reservation horizon (simulated seconds).
  std::size_t reserve_seconds = 4096;

  void validate() const;  ///< throws facsp::ConfigError
};

class NetServer {
 public:
  /// Binds both listening sockets (throws SocketError with strerror text
  /// on failure) but does not serve yet.
  NetServer(const serve::ServerConfig& serve_config, const NetConfig& net);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t admission_port() const;
  /// 0 when the telemetry port is disabled.
  std::uint16_t telemetry_port() const;

  /// Serve until request_stop(), then drain gracefully.
  void run();

  /// Thread- and async-signal-safe stop request.
  void request_stop() noexcept { wake_.poke(); }

  /// Route SIGINT/SIGTERM to this server's request_stop.  One server at a
  /// time; pass nullptr to restore default handlers.
  static void route_signals(NetServer* server);

  const AdmissionService& service() const noexcept { return service_; }
  /// Merged result (wall_s = first submit to drain).  Valid after run().
  serve::ServerResult result() const;

 private:
  struct Connection;

  /// Accepts every pending connection on `listen_fd`: admission
  /// connections wait for frames, telemetry ones get one scrape and close.
  void accept_connections(int listen_fd, bool telemetry);
  void on_readable(Connection& c);
  void on_writable(Connection& c);
  bool parse_frames(Connection& c);
  void handle_request(Connection& c, const std::uint8_t* payload,
                      std::size_t len);
  void send_error(Connection& c, WireError code, std::uint32_t detail);
  void queue_frame(Connection& c, FrameType type, const std::uint8_t* payload,
                   std::size_t len);
  void queue_frame_to(std::uint64_t conn_id, FrameType type,
                      const std::uint8_t* payload, std::size_t len);
  void flush_writes(Connection& c);
  /// Writes every connection queue_frame marked dirty since the last call.
  void flush_dirty();
  void update_interest(Connection& c);
  void close_connection(Connection& c);
  void sweep_timeouts(double now_s);
  void build_scrape(std::string& out) const;
  void drain();
  double now_s() const;

  NetConfig net_;
  AdmissionService service_;
  Poller poller_;
  UniqueFd listen_fd_;
  UniqueFd telemetry_fd_;
  WakePipe wake_;

  /// All connection objects ever created; closed ones park in free_ and
  /// are reused (buffers and all) so steady-state accepts don't allocate
  /// after the connection count's high-water mark.
  std::vector<std::unique_ptr<Connection>> slots_;
  std::vector<Connection*> free_;
  std::vector<Connection*> by_fd_;  ///< index = fd, nullptr when unused
  std::unordered_map<std::uint64_t, Connection*> by_id_;
  std::vector<PollEvent> events_;
  std::vector<Connection*> dirty_;  ///< connections with unflushed frames
  std::uint64_t next_conn_id_ = 1;
  std::size_t open_connections_ = 0;

  std::unique_ptr<obs::SnapshotWriter> snapshot_;
  std::string scrape_scratch_;

  double last_submit_wall_ = -1.0;
  double first_submit_wall_ = -1.0;
  double drained_wall_ = 0.0;
  bool running_ = false;
};

}  // namespace facsp::net
