// The serving workloads: `serve-admit` (net::AdmissionService in process)
// and `wire-saturated` (the same bursts over one loopback TCP connection to
// net::NetServer).
//
// Inputs: serve::record_trace of the paper-grid mix at 3200 req/s over 4
// shards for 4 simulated seconds (12,800 requests), generated from the
// seed before anything is timed, ids re-stamped 1..N in arrival order.  A
// pass replays that buffer against a freshly constructed service, so every
// pass does identical work and must admit exactly the same calls.
//
// A burst is the timed unit: submit (or write) 512 requests, close the
// burst (flush_open_batches() in process, a FLUSH frame on the wire), and
// wait until every request of the burst is answered.
//
// Pass kinds.  The untraced run (--trace 0) runs only the workload's own
// front-end.  The traced run interleaves it with an identical traced pass
// (per-call clock reads, /proc and CPU-clock samples), and with the
// one-level-down replay: the same bursts fed straight into serve::batch_end,
// ShardCore::process_batch and ShardCore::finish_second, shards chosen
// round-robin exactly as AdmissionService does, which splits the serve
// layer from decide (cac/fuzzy) and apply (cellular).
#include <poll.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "cac/fuzzy_cac_base.h"
#include "core/experiment.h"
#include "harness.h"
#include "net/admission_service.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/decision_loop.h"
#include "workload/catalog.h"

namespace perfbench {
namespace {

using namespace facsp;

constexpr std::size_t kBurst = 512;
constexpr int kShards = 4;
constexpr int kRequestsPerS = 3200;
/// Short passes put several whole passes into each 0.1 s window and give a
/// run hundreds of set-up samples.
constexpr std::int64_t kPassSeconds = 4;
/// Enough bursts that ten or more lie beyond the p99.
constexpr std::size_t kMinBursts = 1000;
/// An untraced run has at least this many windows, so that the
/// RunWindows::kRateQuantile quantile of their rates is not the slowest.
constexpr std::size_t kMinWindows = 20;
/// Far above one burst, so nothing is ever shed.
constexpr std::size_t kPendingCap = 1 << 16;
constexpr std::size_t kReserveSeconds = 64;
/// Per-call spans are kept for one burst in this many (all calls are timed).
constexpr std::size_t kSpanEvery = 8;
constexpr std::uint64_t kConn = 1;

struct OperatingPoint {
  const char* name;
  double capacity_bu;
  double mean_holding_s;
  double min_admitted_share;
  double max_admitted_share;
  bool wire;
};

constexpr OperatingPoint kServeAdmit{"serve-admit", 1000.0, 1.0, 0.20, 0.30,
                                     false};
constexpr OperatingPoint kWireSaturated{"wire-saturated", 40.0, 300.0, 0.0,
                                        0.01, true};

serve::ServerConfig make_config(const OperatingPoint& op, std::uint64_t seed) {
  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario.seed = seed;
  config.scenario.capacity_bu = op.capacity_bu;
  config.scenario.traffic.mean_holding_s = op.mean_holding_s;
  config.policy = "facs-p";
  config.duration_s = kPassSeconds;
  config.requests_per_s = kRequestsPerS;
  config.shards = kShards;
  config.threads = 1;
  config.batch_window_s = 0.1;
  config.batch_max = 256;
  return config;
}

/// Everything a pass replays, built once before timing starts.
struct Inputs {
  serve::ServerConfig config;
  std::vector<serve::StampedRequest> trace;
  std::size_t bursts = 0;
  /// Wire frames; burst b is [wire_off[b], wire_off[b + 1]) and ends with
  /// a FLUSH frame.
  std::vector<std::uint8_t> wire;
  std::vector<std::size_t> wire_off;
  /// One-level-down replay: burst b's requests of shard k, receive order.
  struct Segment {
    std::vector<cac::AdmissionRequest> reqs;
    std::vector<double> holding;
  };
  std::vector<Segment> segments;  ///< index b * kShards + k

  std::size_t lo(std::size_t b) const { return b * kBurst; }
  std::size_t hi(std::size_t b) const {
    return std::min(trace.size(), (b + 1) * kBurst);
  }
};

Inputs make_inputs(const OperatingPoint& op, std::uint64_t seed) {
  Inputs in;
  in.config = make_config(op, seed);
  in.trace = serve::record_trace(in.config);
  for (std::size_t i = 0; i < in.trace.size(); ++i) in.trace[i].req.id = i + 1;
  in.bursts = (in.trace.size() + kBurst - 1) / kBurst;

  in.wire.resize(in.trace.size() * net::kRequestFrameSize +
                 in.bursts * net::kFlushFrameSize);
  std::uint8_t* w = in.wire.data();
  in.segments.resize(in.bursts * kShards);
  for (std::size_t b = 0; b < in.bursts; ++b) {
    in.wire_off.push_back(static_cast<std::size_t>(w - in.wire.data()));
    for (std::size_t i = in.lo(b); i < in.hi(b); ++i) {
      net::encode_header({static_cast<std::uint32_t>(net::kRequestPayloadSize),
                          net::FrameType::kRequest, net::kProtocolVersion, 0},
                         w);
      net::encode_request(in.trace[i], w + net::kHeaderSize);
      w += net::kRequestFrameSize;
      // AdmissionService routes by receive order: seq % shards, and a fresh
      // service per pass makes seq == i.
      Inputs::Segment& seg = in.segments[b * kShards + i % kShards];
      seg.reqs.push_back(in.trace[i].req);
      seg.holding.push_back(in.trace[i].holding_s);
    }
    net::encode_header({0, net::FrameType::kFlush, net::kProtocolVersion, 0},
                       w);
    w += net::kFlushFrameSize;
  }
  in.wire_off.push_back(in.wire.size());
  return in;
}

/// Request accounting of one pass.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t releases = 0;
  std::int64_t burst_ns = 0;  ///< wall time of the pass's bursts

  std::uint64_t failed() const {
    return missing + duplicate + errors + shed + exceptions;
  }
  void add(const Tally& o) {
    sent += o.sent;
    answered += o.answered;
    admitted += o.admitted;
    missing += o.missing;
    duplicate += o.duplicate;
    errors += o.errors;
    shed += o.shed;
    exceptions += o.exceptions;
  }
};

/// Calls released during the pass: admitted minus still active at the end.
std::uint64_t releases(const std::vector<serve::TelemetryRow>& rows) {
  std::int64_t admitted = 0;
  for (const serve::TelemetryRow& r : rows) admitted += r.admitted;
  const std::int64_t active = rows.empty() ? 0 : rows.back().active_sessions;
  return static_cast<std::uint64_t>(std::max<std::int64_t>(0, admitted - active));
}

/// Owns a NetServer and the thread running it; joins on destruction.
class ServerThread {
 public:
  ServerThread(const serve::ServerConfig& config, const net::NetConfig& net,
               int cpu)
      : server_(std::make_unique<net::NetServer>(config, net)),
        thread_([this, cpu] {
          pin_current_thread(cpu);
          tid_.store(current_tid(), std::memory_order_release);
          try {
            server_->run();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}

  ~ServerThread() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// Graceful drain and join; rethrows what the server thread threw.
  void stop() {
    if (!thread_.joinable()) return;
    server_->request_stop();
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

  std::uint16_t port() const { return server_->admission_port(); }
  const net::NetServer& server() const { return *server_; }

  pid_t tid() const {
    pid_t t = 0;
    while ((t = tid_.load(std::memory_order_acquire)) == 0)
      std::this_thread::yield();
    return t;
  }

  std::int64_t cpu_ns() {
    clockid_t clock{};
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &clock) != 0 ||
        clock_gettime(clock, &ts) != 0)
      return 0;
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::atomic<pid_t> tid_{0};
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after everything it uses exists
};

class ServeBench {
 public:
  ServeBench(const OperatingPoint& op, const RunOptions& opt)
      : op_(op), opt_(opt), spans_(opt.trace ? (1u << 19) : 0) {}

  Outcome run();

 private:
  enum class Kind { kInproc, kInprocTraced, kLevel, kWire, kWireTraced };
  static const char* kind_name(Kind k);

  void inproc_pass(bool traced);
  void level_pass();
  void wire_pass(bool traced);
  void wire_burst(int fd, std::size_t b, bool traced, int root, Tally& t);
  void on_decision(std::uint64_t id, bool admitted, Tally& t);
  void begin_pass();
  void end_pass(Kind kind, Tally& t);
  void check_pass(Kind kind, const Tally& t);

  OperatingPoint op_;
  RunOptions opt_;
  Inputs in_;
  Outcome out_;
  SpanLog spans_;
  int tid_main_ = 1;
  /// The one CPU every thread of the workload is pinned to.
  int cpu_ = -1;

  std::vector<std::uint8_t> answered_;  ///< per request id, reset per pass
  std::int64_t reference_admitted_ = -1;
  std::uint64_t burst_answered_ = 0;
  int call_shard_ = -1;       ///< shard of the last decision in this call
  int batches_in_call_ = 0;   ///< batches closed by the current call

  // Per kind: burst latencies (us), per-pass decision rates, set-up times.
  struct KindStats {
    std::vector<double> burst_us;
    std::vector<double> decisions_per_s;
    std::vector<double> setup_s;
    Tally tally;
    Tally last;  ///< the most recent pass
    std::size_t passes = 0;
  };
  KindStats stats_[5];
  KindStats& stats(Kind k) { return stats_[static_cast<int>(k)]; }

  // Traced in-process passes: calls into the serve layer.
  std::int64_t buffer_ns_ = 0;
  std::uint64_t buffer_calls_ = 0;
  std::vector<double> batch_close_us_;
  std::int64_t traced_burst_ns_ = 0;
  std::int64_t traced_call_ns_ = 0;
  double active_sessions_sum_ = 0.0;
  std::uint64_t active_sessions_rows_ = 0;

  // One-level-down replay.
  double accept_threshold_ = std::nan("");
  std::int64_t process_batch_ns_ = 0;
  std::int64_t decide_ns_ = 0;
  std::uint64_t level_decisions_ = 0;
  std::uint64_t level_batches_ = 0;
  std::uint64_t level_admitted_ = 0;
  std::uint64_t level_demoted_ = 0;
  std::uint64_t level_allocs_ = 0;
  std::vector<double> finish_second_us_;

  // Traced wire passes, measured on the server thread and the client.
  std::uint64_t srv_reads_ = 0;
  std::uint64_t srv_writes_ = 0;
  std::int64_t srv_cpu_ns_ = 0;
  std::int64_t cli_cpu_ns_ = 0;
  std::int64_t wire_wall_ns_ = 0;
  std::uint64_t wire_decisions_ = 0;
  std::int64_t wire_io_ns_ = 0;  ///< client time inside write/poll/read
};

const char* ServeBench::kind_name(Kind k) {
  switch (k) {
    case Kind::kInproc: return "in-process";
    case Kind::kInprocTraced: return "in-process traced";
    case Kind::kLevel: return "one-level-down";
    case Kind::kWire: return "wire";
    case Kind::kWireTraced: return "wire traced";
  }
  return "?";
}

void ServeBench::on_decision(std::uint64_t id, bool admitted, Tally& t) {
  if (id == 0 || id > answered_.size()) {
    ++t.errors;  // an id nobody sent
    return;
  }
  ++answered_[id - 1];
  ++t.answered;
  t.admitted += admitted ? 1 : 0;
  ++burst_answered_;
  const int shard = static_cast<int>((id - 1) % kShards);
  if (shard != call_shard_) {
    call_shard_ = shard;
    ++batches_in_call_;
  }
}

void ServeBench::begin_pass() {
  answered_.assign(in_.trace.size(), 0);
}

void ServeBench::end_pass(Kind kind, Tally& t) {
  t.sent = in_.trace.size();
  for (const std::uint8_t a : answered_) {
    if (a == 0) ++t.missing;
    if (a > 1) t.duplicate += a - 1u;
  }
  check_pass(kind, t);
  KindStats& s = stats(kind);
  ++s.passes;
  s.tally.add(t);
  s.last = t;
  if (t.burst_ns > 0) {
    const double wall_s = static_cast<double>(t.burst_ns) / 1e9;
    s.decisions_per_s.push_back(static_cast<double>(t.answered) / wall_s);
  }
}

void ServeBench::check_pass(Kind kind, const Tally& t) {
  char buf[256];
  if (t.failed() > 0) {
    std::snprintf(buf, sizeof buf,
                  "%s pass: %llu of %llu requests failed (missing %llu, "
                  "duplicate %llu, error %llu, shed %llu, exception %llu)",
                  kind_name(kind), static_cast<unsigned long long>(t.failed()),
                  static_cast<unsigned long long>(t.sent),
                  static_cast<unsigned long long>(t.missing),
                  static_cast<unsigned long long>(t.duplicate),
                  static_cast<unsigned long long>(t.errors),
                  static_cast<unsigned long long>(t.shed),
                  static_cast<unsigned long long>(t.exceptions));
    out_.fail(buf);
  }
  const auto admitted = static_cast<std::int64_t>(t.admitted);
  if (reference_admitted_ < 0) reference_admitted_ = admitted;
  if (admitted != reference_admitted_) {
    std::snprintf(buf, sizeof buf,
                  "%s pass admitted %lld calls, expected %lld (every pass "
                  "replays identical bursts)",
                  kind_name(kind), static_cast<long long>(admitted),
                  static_cast<long long>(reference_admitted_));
    out_.fail(buf);
  }
  const double share =
      static_cast<double>(t.admitted) / static_cast<double>(t.sent);
  if (share < op_.min_admitted_share || share >= op_.max_admitted_share) {
    std::snprintf(buf, sizeof buf,
                  "%s pass admitted share %.4f outside [%.2f, %.2f)",
                  kind_name(kind), share, op_.min_admitted_share,
                  op_.max_admitted_share);
    out_.fail(buf);
  }
}

void ServeBench::inproc_pass(bool traced) {
  const Kind kind = traced ? Kind::kInprocTraced : Kind::kInproc;
  begin_pass();
  Tally t;
  const std::int64_t s0 = now_ns();
  net::AdmissionService svc(in_.config, kPendingCap, kReserveSeconds);
  svc.set_callbacks(
      {[this, &t](std::uint64_t, const cac::AdmissionRequest& req,
                  const cac::AdmissionDecision& d) {
         on_decision(req.id, d.admitted, t);
       },
       [&t](std::uint64_t, std::uint64_t) { ++t.shed; }});
  stats(kind).setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);

  std::vector<double>& burst_us = stats(kind).burst_us;
  for (std::size_t b = 0; b < in_.bursts; ++b) {
    const bool keep = traced && b % kSpanEvery == 0;
    burst_answered_ = 0;
    const std::int64_t start = now_ns();
    const int root =
        traced ? spans_.open("bench", "burst", start, -1, tid_main_,
                             static_cast<std::int64_t>(b))
               : -1;
    for (std::size_t i = in_.lo(b); i < in_.hi(b); ++i) {
      if (!traced) {
        if (svc.submit(kConn, in_.trace[i]) !=
            net::AdmissionService::Submit::kAccepted)
          ++t.errors;
        continue;
      }
      call_shard_ = -1;
      batches_in_call_ = 0;
      const std::int64_t c0 = now_ns();
      const auto r = svc.submit(kConn, in_.trace[i]);
      const std::int64_t c1 = now_ns();
      if (r != net::AdmissionService::Submit::kAccepted) ++t.errors;
      traced_call_ns_ += c1 - c0;
      if (batches_in_call_ == 0) {
        buffer_ns_ += c1 - c0;
        ++buffer_calls_;
      } else {
        batch_close_us_.push_back(static_cast<double>(c1 - c0) / 1e3 /
                                  batches_in_call_);
      }
      if (keep)
        spans_.add("serve", batches_in_call_ == 0 ? "submit" : "submit_close",
                   c0, c1, root, tid_main_, static_cast<std::int64_t>(b));
    }
    call_shard_ = -1;
    batches_in_call_ = 0;
    const std::int64_t f0 = traced ? now_ns() : 0;
    svc.flush_open_batches();
    const std::int64_t end = now_ns();
    if (traced) {
      traced_call_ns_ += end - f0;
      if (batches_in_call_ > 0)
        batch_close_us_.push_back(static_cast<double>(end - f0) / 1e3 /
                                  batches_in_call_);
      if (keep)
        spans_.add("serve", "flush_open_batches", f0, end, root, tid_main_,
                   static_cast<std::int64_t>(b));
      spans_.close(root, end);
      traced_burst_ns_ += end - start;
    }
    t.burst_ns += end - start;
    burst_us.push_back(static_cast<double>(end - start) / 1e3);
    if (burst_answered_ != in_.hi(b) - in_.lo(b)) {
      out_.fail("in-process burst " + std::to_string(b) + " answered " +
                std::to_string(burst_answered_) + " of " +
                std::to_string(in_.hi(b) - in_.lo(b)) + " requests");
    }
  }
  svc.drain();
  t.releases = releases(svc.telemetry());
  if (traced) {
    for (const serve::TelemetryRow& r : svc.telemetry())
      active_sessions_sum_ += static_cast<double>(r.active_sessions);
    active_sessions_rows_ += svc.telemetry().size();
  }
  if (svc.shed_total() != t.shed || svc.decided() != t.answered)
    out_.fail("in-process service counters disagree with the callbacks");
  end_pass(kind, t);
}

void ServeBench::level_pass() {
  begin_pass();
  Tally t;
  std::vector<std::unique_ptr<serve::ShardCore>> cores;
  for (int k = 0; k < kShards; ++k) {
    cores.push_back(std::make_unique<serve::ShardCore>(in_.config, k));
    cores.back()->reserve_windows(kReserveSeconds);
  }
  std::vector<std::int64_t> next_fin(kShards, 0);
  std::vector<std::int64_t> cur_sec(kShards, -1);
  const double window = in_.config.batch_window_s;
  const int batch_max = in_.config.batch_max;

  auto finish = [&](int k, int parent, std::int64_t b) {
    const std::int64_t f0 = now_ns();
    cores[static_cast<std::size_t>(k)]->finish_second(next_fin[k]);
    const std::int64_t f1 = now_ns();
    finish_second_us_.push_back(static_cast<double>(f1 - f0) / 1e3);
    spans_.add("serve", "finish_second", f0, f1, parent, tid_main_, b);
    cur_sec[k] = std::max(cur_sec[k], next_fin[k]);
    ++next_fin[k];
  };

  for (std::size_t b = 0; b < in_.bursts; ++b) {
    const auto burst = static_cast<std::int64_t>(b);
    const std::int64_t start = now_ns();
    const int root = spans_.open("bench", "burst", start, -1, tid_main_, burst);
    for (int k = 0; k < kShards; ++k) {
      serve::ShardCore& core = *cores[static_cast<std::size_t>(k)];
      const Inputs::Segment& seg = in_.segments[b * kShards + k];
      const std::span<const cac::AdmissionRequest> reqs(seg.reqs);
      std::size_t i = 0;
      while (i < reqs.size()) {
        const std::int64_t e0 = now_ns();
        const std::size_t j = serve::batch_end(reqs, i, window, batch_max);
        const std::int64_t e1 = now_ns();
        spans_.add("serve", "batch_end", e0, e1, root, tid_main_, burst);
        const auto sec = static_cast<std::int64_t>(std::floor(reqs[i].now));
        while (next_fin[k] < sec) finish(k, root, burst);

        const std::uint64_t hist_before =
            cur_sec[k] == sec ? core.second_hist().sum_ns() : 0;
        const std::uint64_t a0 = allocations();
        const std::int64_t p0 = now_ns();
        const std::span<const cac::AdmissionDecision> d = core.process_batch(
            reqs.subspan(i, j - i),
            std::span<const double>(seg.holding).subspan(i, j - i));
        const std::int64_t p1 = now_ns();
        level_allocs_ += allocations() - a0;
        cur_sec[k] = sec;
        spans_.add("serve", "process_batch", p0, p1, root, tid_main_, burst);
        process_batch_ns_ += p1 - p0;
        decide_ns_ +=
            static_cast<std::int64_t>(core.second_hist().sum_ns() - hist_before);
        ++level_batches_;

        // decide_batch admits iff score > threshold and the call fits the
        // bandwidth free when the batch was scored.  Releases happen before
        // scoring, so that bandwidth is what is free now plus what this
        // batch's admissions took; a call that fitted then but was not
        // admitted was demoted by the capacity re-check.
        double admitted_bw = 0.0;
        for (std::size_t m = 0; m < d.size(); ++m) {
          if (d[m].admitted) admitted_bw += reqs[i + m].bandwidth;
          on_decision(reqs[i + m].id, d[m].admitted, t);
        }
        const cellular::BaseStation& bs = core.network().center();
        const double free_at_decide = bs.free() + admitted_bw;
        for (std::size_t m = 0; m < d.size(); ++m)
          if (!d[m].admitted && d[m].score > accept_threshold_ &&
              reqs[i + m].bandwidth <= free_at_decide + 1e-9)
            ++level_demoted_;
        i = j;
      }
    }
    const std::int64_t end = now_ns();
    spans_.close(root, end);
    t.burst_ns += end - start;
    stats(Kind::kLevel).burst_us.push_back(static_cast<double>(end - start) / 1e3);
  }
  // End of input: seal through the last arrival's second, like drain().
  const auto last_sec =
      static_cast<std::int64_t>(std::floor(in_.trace.back().req.now));
  for (int k = 0; k < kShards; ++k)
    while (next_fin[k] <= last_sec) finish(k, -1, -1);
  std::uint64_t active = 0;
  for (const auto& c : cores) active += c->active_sessions();
  t.releases = t.admitted - active;
  level_decisions_ += t.answered;
  level_admitted_ += t.admitted;
  end_pass(Kind::kLevel, t);
}

void ServeBench::wire_burst(int fd, std::size_t b, bool traced, int root,
                            Tally& t) {
  const bool keep = traced && b % kSpanEvery == 0;
  const auto burst = static_cast<std::int64_t>(b);
  const std::uint8_t* out = in_.wire.data() + in_.wire_off[b];
  const std::size_t out_len = in_.wire_off[b + 1] - in_.wire_off[b];
  std::size_t sent = 0;
  std::uint8_t in[64 * 1024];
  std::size_t in_len = 0;
  bool flushed = false;
  auto timed = [&](const char* name, auto&& call) {
    if (!traced) return call();
    const std::int64_t c0 = now_ns();
    const auto r = call();
    const std::int64_t c1 = now_ns();
    wire_io_ns_ += c1 - c0;
    if (keep) spans_.add("net_client", name, c0, c1, root, tid_main_, burst);
    return r;
  };
  while (!flushed) {
    pollfd p{fd, POLLIN, 0};
    if (sent < out_len) p.events |= POLLOUT;
    if (timed("poll", [&] { return ::poll(&p, 1, 30000); }) <= 0)
      throw std::runtime_error("wire: no progress for 30 s");
    if ((p.revents & POLLOUT) != 0 && sent < out_len) {
      const ssize_t w = timed(
          "write", [&] { return ::write(fd, out + sent, out_len - sent); });
      if (w > 0)
        sent += static_cast<std::size_t>(w);
      else if (w < 0 && errno != EINTR && errno != EAGAIN)
        throw std::runtime_error(std::string("wire: write: ") +
                                 std::strerror(errno));
    }
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t r = timed(
        "read", [&] { return ::read(fd, in + in_len, sizeof in - in_len); });
    if (r == 0) throw std::runtime_error("wire: server closed the connection");
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw std::runtime_error(std::string("wire: read: ") +
                               std::strerror(errno));
    }
    in_len += static_cast<std::size_t>(r);
    std::size_t off = 0;
    while (in_len - off >= net::kHeaderSize) {
      const net::FrameHeader h = net::decode_header(in + off);
      if (in_len - off < net::kHeaderSize + h.len) break;
      const std::uint8_t* payload = in + off + net::kHeaderSize;
      switch (h.type) {
        case net::FrameType::kResponse: {
          net::ResponseFrame resp;
          if (net::decode_response(payload, h.len, resp) == net::WireError::kNone)
            on_decision(resp.id, resp.admitted, t);
          else
            ++t.errors;
          break;
        }
        case net::FrameType::kDropped:
          ++t.shed;
          break;
        case net::FrameType::kFlush:
          flushed = true;
          break;
        default: {
          net::ErrorFrame e;
          net::decode_error(payload, h.len, e);
          ++t.errors;
          throw std::runtime_error(std::string("wire: error frame ") +
                                   net::wire_error_name(e.code));
        }
      }
      off += net::kHeaderSize + h.len;
    }
    std::memmove(in, in + off, in_len - off);
    in_len -= off;
  }
  if (in_len != 0) throw std::runtime_error("wire: bytes after the FLUSH echo");
}

void ServeBench::wire_pass(bool traced) {
  const Kind kind = traced ? Kind::kWireTraced : Kind::kWire;
  begin_pass();
  Tally t;
  net::NetConfig net;
  net.port = 0;
  net.pending_cap = kPendingCap;
  net.reserve_seconds = kReserveSeconds;
  net.flush_idle_s = 3600.0;  // only FLUSH frames close a burst's batches

  const std::int64_t s0 = now_ns();
  ServerThread server(in_.config, net, cpu_);
  net::UniqueFd fd = net::connect_tcp("127.0.0.1", server.port());
  net::set_nonblocking(fd.get());
  {
    // Set-up ends once the server has accepted and served the connection:
    // a FLUSH round trip proves both.
    std::uint8_t flush[net::kFlushFrameSize];
    net::encode_header({0, net::FrameType::kFlush, net::kProtocolVersion, 0},
                       flush);
    if (::write(fd.get(), flush, sizeof flush) != sizeof flush)
      throw std::runtime_error("wire: cannot send the set-up FLUSH");
    std::uint8_t echo[net::kFlushFrameSize];
    std::size_t got = 0;
    while (got < sizeof echo) {
      pollfd p{fd.get(), POLLIN, 0};
      if (::poll(&p, 1, 30000) <= 0)
        throw std::runtime_error("wire: no FLUSH echo during set-up");
      const ssize_t r = ::read(fd.get(), echo + got, sizeof echo - got);
      if (r <= 0 && !(r < 0 && errno == EAGAIN))
        throw std::runtime_error("wire: connection lost during set-up");
      if (r > 0) got += static_cast<std::size_t>(r);
    }
  }
  stats(kind).setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);

  const pid_t srv_tid = server.tid();
  const SyscallCounts sc0 = traced ? thread_syscalls(srv_tid) : SyscallCounts{};
  const std::int64_t srv_cpu0 = traced ? server.cpu_ns() : 0;
  const std::int64_t cli_cpu0 = traced ? thread_cpu_ns() : 0;
  const std::int64_t wall0 = now_ns();

  std::vector<double>& burst_us = stats(kind).burst_us;
  try {
    for (std::size_t b = 0; b < in_.bursts; ++b) {
      burst_answered_ = 0;
      const std::int64_t start = now_ns();
      const int root =
          traced ? spans_.open("bench", "burst", start, -1, tid_main_,
                               static_cast<std::int64_t>(b))
                 : -1;
      wire_burst(fd.get(), b, traced, root, t);
      const std::int64_t end = now_ns();
      if (traced) {
        spans_.close(root, end);
        traced_burst_ns_ += end - start;
      }
      t.burst_ns += end - start;
      burst_us.push_back(static_cast<double>(end - start) / 1e3);
      if (burst_answered_ != in_.hi(b) - in_.lo(b))
        out_.fail("wire burst " + std::to_string(b) + " answered " +
                  std::to_string(burst_answered_) + " of " +
                  std::to_string(in_.hi(b) - in_.lo(b)) + " requests");
    }
  } catch (const std::exception& e) {
    ++t.exceptions;
    out_.fail(e.what());
  }

  if (traced) {
    const SyscallCounts sc1 = thread_syscalls(srv_tid);
    srv_reads_ += sc1.reads - sc0.reads;
    srv_writes_ += sc1.writes - sc0.writes;
    srv_cpu_ns_ += server.cpu_ns() - srv_cpu0;
    cli_cpu_ns_ += thread_cpu_ns() - cli_cpu0;
    wire_wall_ns_ += now_ns() - wall0;
    wire_decisions_ += t.answered;
  }
  fd.reset();
  server.stop();
  const net::AdmissionService& svc = server.server().service();
  t.releases = releases(svc.telemetry());
  if (svc.shed_total() != t.shed)
    out_.fail("wire: server shed count disagrees with the dropped frames");
  end_pass(kind, t);
}

Outcome ServeBench::run() {
  const bool wire = op_.wire;
  // The wire server shares the client's CPU.  On separate vCPUs every
  // response wakes the other side through an inter-processor interrupt,
  // and on a shared VM those made burst times spread by almost 2x between
  // identical runs; on one CPU the burst time is the two threads' work.
  cpu_ = pick_cpu();
  pin_current_thread(cpu_);
  spans_.name_thread(tid_main_, wire ? "client" : "bench");

  in_ = make_inputs(op_, opt_.seed);
  {
    cellular::CellularNetwork net(in_.config.scenario.rings,
                                  in_.config.scenario.cell_radius_m,
                                  in_.config.scenario.capacity_bu);
    sim::RngFactory rng(in_.config.scenario.seed);
    const auto policy = core::policy_factory_by_name(in_.config.policy)(net, rng);
    if (const auto* f = dynamic_cast<const cac::FuzzyCacBase*>(policy.get()))
      accept_threshold_ = f->accept_threshold();
  }
  if (opt_.expect_admitted >= 0) reference_admitted_ = opt_.expect_admitted;

  // Oracle and warm-up: one untimed in-process pass fixes the admitted
  // count every later pass (in process, one level down, or over the wire)
  // must reproduce.
  inproc_pass(false);
  stats_[static_cast<int>(Kind::kInproc)] = KindStats{};

  const Kind primary = wire ? Kind::kWire : Kind::kInproc;
  std::vector<Kind> kinds = {primary};
  if (opt_.trace && wire)
    kinds = {Kind::kWire, Kind::kWireTraced, Kind::kInproc,
             Kind::kInprocTraced, Kind::kLevel};
  else if (opt_.trace)
    kinds = {Kind::kInproc, Kind::kInprocTraced, Kind::kLevel};

  const std::int64_t start = now_ns();
  const auto elapsed = [start] {
    return static_cast<double>(now_ns() - start) / 1e9;
  };
  // Untraced: the workload's own passes, measured in windows.
  RunWindows windows;
  while (!opt_.trace && out_.correct &&
         (windows.windows() < kMinWindows || elapsed() < opt_.seconds ||
          windows.bursts() < kMinBursts)) {
    KindStats& p = stats(primary);
    const std::size_t b0 = p.burst_us.size();
    if (wire) wire_pass(false);
    else inproc_pass(false);
    windows.add(static_cast<double>(p.last.answered),
                static_cast<double>(p.last.answered + p.last.releases),
                p.last.burst_ns, p.burst_us.data() + b0, p.burst_us.size() - b0,
                &p.setup_s.back(), 1);
  }
  // Traced: the kinds in turn.
  for (std::size_t i = 0; opt_.trace; ++i) {
    if (i >= kinds.size() && i % kinds.size() == 0 &&
        elapsed() >= opt_.seconds &&
        stats(primary).burst_us.size() >= kMinBursts)
      break;
    if (!out_.correct && i >= kinds.size()) break;  // a failed gate stops early
    switch (kinds[i % kinds.size()]) {
      case Kind::kInproc: inproc_pass(false); break;
      case Kind::kInprocTraced: inproc_pass(true); break;
      case Kind::kLevel: level_pass(); break;
      case Kind::kWire: wire_pass(false); break;
      case Kind::kWireTraced: wire_pass(true); break;
    }
  }

  Tally total;
  for (const Kind k : kinds) total.add(stats(k).tally);
  out_.attempted = total.sent;
  out_.failed = total.failed();
  std::fprintf(stderr,
               "%s: sent %llu, answered %llu, failed %llu (missing %llu, "
               "duplicate %llu, error %llu, shed %llu, exception %llu); "
               "admitted %lld per pass\n",
               op_.name, static_cast<unsigned long long>(total.sent),
               static_cast<unsigned long long>(total.answered),
               static_cast<unsigned long long>(total.failed()),
               static_cast<unsigned long long>(total.missing),
               static_cast<unsigned long long>(total.duplicate),
               static_cast<unsigned long long>(total.errors),
               static_cast<unsigned long long>(total.shed),
               static_cast<unsigned long long>(total.exceptions),
               static_cast<long long>(reference_admitted_));
  for (const Kind k : kinds)
    std::fprintf(stderr, "  %-18s %zu passes, %zu bursts\n", kind_name(k),
                 stats(k).passes, stats(k).burst_us.size());

  if (!opt_.trace) {
    windows.report(out_);
    return out_;
  }

  std::map<std::string, double> m;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double inproc_p50 = percentile(stats(Kind::kInproc).burst_us, 0.5);
  if (wire) {
    const auto decisions = static_cast<double>(wire_decisions_);
    m["net.write_calls_per_decision"] =
        ratio(static_cast<double>(srv_writes_), decisions);
    m["net.read_calls_per_decision"] =
        ratio(static_cast<double>(srv_reads_), decisions);
    m["net.server_cpu_us_per_decision"] =
        ratio(static_cast<double>(srv_cpu_ns_) / 1e3, decisions);
    m["net.server_busy_share"] = ratio(static_cast<double>(srv_cpu_ns_),
                                       static_cast<double>(wire_wall_ns_));
    m["net.client_cpu_us_per_decision"] =
        ratio(static_cast<double>(cli_cpu_ns_) / 1e3, decisions);
    m["net.overhead_us_per_burst"] =
        percentile(stats(Kind::kWire).burst_us, 0.5) - inproc_p50;
  }
  m["serve.buffer_ns_per_request"] =
      ratio(static_cast<double>(buffer_ns_), static_cast<double>(buffer_calls_));
  m["serve.batch_close_us_p50"] = percentile(batch_close_us_, 0.5);
  m["serve.batch_size_mean"] = ratio(static_cast<double>(level_decisions_),
                                     static_cast<double>(level_batches_));
  m["serve.process_batch_ns_per_decision"] =
      ratio(static_cast<double>(process_batch_ns_),
            static_cast<double>(level_decisions_));
  m["serve.finish_second_us_p99"] = percentile(finish_second_us_, 0.99);
  m["serve.active_sessions_mean"] = ratio(
      active_sessions_sum_, static_cast<double>(active_sessions_rows_));
  m["cac.decide_ns_per_decision"] = ratio(
      static_cast<double>(decide_ns_), static_cast<double>(level_decisions_));
  m["cac.admitted_share"] = ratio(static_cast<double>(level_admitted_),
                                  static_cast<double>(level_decisions_));
  m["cac.demoted_share"] = ratio(static_cast<double>(level_demoted_),
                                 static_cast<double>(level_decisions_));
  m["cellular.apply_ns_per_decision"] =
      ratio(static_cast<double>(process_batch_ns_ - decide_ns_),
            static_cast<double>(level_decisions_));
  m["cellular.allocs_per_admission"] = ratio(
      static_cast<double>(level_allocs_), static_cast<double>(level_admitted_));
  m["unattributed_share"] =
      wire ? ratio(static_cast<double>(traced_burst_ns_ - wire_io_ns_),
                   static_cast<double>(traced_burst_ns_))
           : ratio(static_cast<double>(traced_burst_ns_ - traced_call_ns_),
                   static_cast<double>(traced_burst_ns_));
  const Kind traced = wire ? Kind::kWireTraced : Kind::kInprocTraced;
  m["trace_overhead_share"] =
      1.0 - ratio(median(stats(traced).decisions_per_s),
                  median(stats(primary).decisions_per_s));
  add_layer_metrics(out_, m);

  const std::string path = opt_.out_dir + "/" + op_.name + ".trace.json";
  spans_.write_chrome_json(path);
  std::fprintf(stderr, "  trace: %zu spans (%llu dropped) -> %s\n",
               spans_.size(), static_cast<unsigned long long>(spans_.dropped()),
               path.c_str());
  return out_;
}

}  // namespace

Outcome run_serve_admit(const RunOptions& opt) {
  return ServeBench(kServeAdmit, opt).run();
}

Outcome run_wire_saturated(const RunOptions& opt) {
  return ServeBench(kWireSaturated, opt).run();
}

}  // namespace perfbench
