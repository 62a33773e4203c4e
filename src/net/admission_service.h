// The admission port's decision core, with every socket concern stripped
// out: it takes already-decoded requests tagged with an origin connection,
// batches them into the serving loop's batch_window_s / batch_max windows,
// answers through serve::ShardCore's zero-alloc decide_batch path, and
// emits decisions/drops through callbacks.  tests/net/ drives it directly;
// NetServer wires the callbacks to connection write buffers.
//
// Determinism contract (the socket path's byte-identity guarantee): feed
// the service a recorded trace in trace order — any number of connections,
// one global arrival order — and the telemetry it accumulates is
// byte-identical to DecisionServer replaying the same trace with the same
// (shards, batch_window_s, batch_max):
//
//   * requests are assigned to shards round-robin in receive order
//     (seq % shards), exactly TraceReplayStream's index % shards split;
//   * per shard, batches close by the same greedy rule as
//     serve::batch_end — at the first same-shard arrival past the window
//     boundary, at batch_max, or (new here) as soon as the global arrival
//     watermark passes the boundary, which closes the same batch earlier
//     in wall time but with identical contents, since any later same-shard
//     arrival is at or past the watermark;
//   * a simulated second is finalized — per-shard finish_second, then the
//     fixed shard-order serve::append_second DecisionServer::run calls —
//     when the watermark enters a later second, so every batch of a second is
//     decided before its row is sealed;
//   * arrivals below the watermark are rejected (kTimeOrder), never
//     silently reordered, and arrivals more than `max_skew_s` above it
//     are rejected (kHorizon) — advancing the watermark finalizes every
//     second it passes inline, so unbounded forward jumps from one
//     hostile frame would otherwise wedge the event loop.
//
// Overload: `pending_cap` bounds undecided requests across all shards.
// At the cap the OLDEST pending request is shed (on_dropped) to make room
// for the newcomer — drop-oldest keeps the freshest arrivals, the ones
// whose callers are still waiting.  Shedding necessarily forfeits the
// byte-identity above; it is counted in the metrics registry.
//
// Steady state allocates nothing: all per-shard buffers are reserved to
// batch_max at construction and telemetry rows to `reserve_seconds`
// (beyond that horizon the row vectors grow — one realloc per 4096
// simulated seconds by default, not per request).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/decision_loop.h"

namespace facsp::net {

class AdmissionService {
 public:
  struct Callbacks {
    /// One decision per request, invoked in batch order as batches close.
    std::function<void(std::uint64_t conn, const cac::AdmissionRequest& req,
                       const cac::AdmissionDecision& d)>
        on_decision;
    /// A request shed by the pending cap (id = its connection id field).
    std::function<void(std::uint64_t conn, std::uint64_t request_id)>
        on_dropped;
  };

  /// Observer of each finalized second's merged row (snapshot flushing,
  /// scrape freshness).  Runs inline on the submitting thread.
  using SecondHook =
      std::function<void(std::int64_t second, const serve::TelemetryRow&)>;

  /// Default forward-skew horizon: an arrival more than this many simulated
  /// seconds above the watermark is refused (kHorizon) instead of finalizing
  /// that many empty telemetry seconds inline on the submit path.
  static constexpr double kDefaultMaxSkewS = 3600.0;

  AdmissionService(const serve::ServerConfig& config, std::size_t pending_cap,
                   std::size_t reserve_seconds,
                   double max_skew_s = kDefaultMaxSkewS);

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }
  void set_second_hook(SecondHook hook) { second_hook_ = std::move(hook); }

  enum class Submit {
    kAccepted,
    /// arrival_s below the watermark — request refused, nothing enqueued.
    kReordered,
    /// arrival_s more than max_skew_s above the watermark — refused,
    /// nothing enqueued, watermark unchanged.
    kHorizon,
  };

  /// Feed one decoded request from connection `conn`.  May close batches,
  /// finalize seconds and shed — every callback fires before this returns.
  Submit submit(std::uint64_t conn, const serve::StampedRequest& r);

  /// Close and decide every open batch (FLUSH frame, idle timer).  Does
  /// not finalize seconds: later arrivals in the same second still join it.
  void flush_open_batches();

  /// End of input: flush, then finalize through the watermark's second so
  /// the last telemetry row is sealed.  Further submits are refused as
  /// kReordered.  Idempotent.
  void drain();
  bool drained() const noexcept { return drained_; }

  std::size_t pending() const noexcept { return pending_; }
  bool has_open_batches() const noexcept { return pending_ > 0; }
  std::uint64_t submitted() const noexcept { return submitted_; }
  std::uint64_t decided() const noexcept { return decided_; }
  std::uint64_t shed_total() const noexcept { return shed_; }
  /// Latest accepted arrival time (-1 before the first accept).
  double watermark() const noexcept { return last_t_; }

  /// Finalized rows so far (grows as the watermark advances).
  const std::vector<serve::TelemetryRow>& telemetry() const noexcept {
    return result_.telemetry;
  }
  /// Last finalized row, or nullptr before the first finalized second.
  const serve::TelemetryRow* latest_row() const noexcept {
    return result_.telemetry.empty() ? nullptr : &result_.telemetry.back();
  }

  /// Merged result in the decision server's shape (telemetry + latency +
  /// overall histogram + totals).  wall_s is left 0 — the event loop owns
  /// the wall clock.  Meaningful once drained.
  const serve::ServerResult& result() const noexcept { return result_; }

 private:
  struct NetShard {
    serve::ShardCore core;
    // The one open batch (arrival order), reserved to batch_max.
    std::vector<cac::AdmissionRequest> batch;
    std::vector<double> holdings;
    std::vector<std::uint64_t> conns;
    std::vector<std::uint64_t> seqs;
    double close = 0.0;  ///< batch close time; meaningful when !batch.empty()

    NetShard(const serve::ServerConfig& config, int index);
  };

  void process_shard(NetShard& s);
  void finalize_second(std::int64_t sec);
  void shed_oldest();

  serve::ServerConfig config_;
  std::vector<std::unique_ptr<NetShard>> shards_;
  std::vector<const serve::ShardCore*> cores_;  ///< shards_[i]->core
  Callbacks cb_;
  SecondHook second_hook_;

  std::size_t pending_cap_;
  double max_skew_s_;
  std::size_t pending_ = 0;
  std::uint64_t seq_ = 0;        ///< global receive-order counter
  std::uint64_t submitted_ = 0;
  std::uint64_t decided_ = 0;
  std::uint64_t shed_ = 0;
  double last_t_ = -1.0;         ///< watermark
  std::int64_t next_second_ = 0; ///< first not-yet-finalized second
  bool drained_ = false;

  serve::ServerResult result_;
};

}  // namespace facsp::net
