// The decision server: a long-lived admission-serving loop.
//
// Architecture (mirrors core::MultiCellEngine's determinism discipline):
// the server owns `shards` independent cells — each with its own
// CellularNetwork, policy instance and RNG streams rooted at
// hash_seed(seed, "serve-cell", shard) — and advances them one simulated
// second at a time.  Within a second each shard buffers its arrivals into
// batching windows (at most `batch_window_s` of latency or `batch_max`
// requests), answers every batch through the policy's zero-alloc
// decide_batch path, applies admissions against the shard's base station,
// and accumulates integer telemetry counters.  At the end of the second the
// shards are merged in fixed shard order.
//
// Determinism: the shard count is part of the configuration, NOT derived
// from the thread count, and threads only drain shards within a second —
// so the telemetry stream is a pure function of (scenario, seed, shard
// count) and byte-identical for ANY thread count.  Wall-clock decision
// latency is inherently machine-dependent; it is therefore kept out of the
// telemetry CSV entirely and reported in a separate latency CSV + summary.
//
// Steady-state allocation: every per-second container (arrival scratch,
// batch spans, expiry heap, telemetry rows) is reserved up front and
// reused, decide_batch reuses the policy's inference scratch, and with
// threads == 1 the shards are drained by a plain serial loop (no
// std::function) — so once warm, serving a second performs no heap
// allocation except one BaseStation ledger node per *admitted* call
// (bounded by capacity churn, ~capacity/mean_holding per second, not by
// the request rate).  bench_server.cc audits this with a counting
// operator new.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "obs/histogram.h"
#include "serve/request_stream.h"
#include "serve/rolling_window.h"
#include "serve/trace.h"
#include "sim/timeseries.h"

namespace facsp::serve {

/// Everything the decision server depends on.
struct ServerConfig {
  /// Topology / traffic / seed (catalog scenario or config file).
  core::ScenarioConfig scenario{};
  /// Admission policy (core::policy_factory_by_name registry).
  std::string policy = "facs-p";
  /// Simulated seconds to serve.  Replay mode may leave this 0 to derive
  /// the duration from the trace.
  std::int64_t duration_s = 60;
  /// Aggregate live-mode arrival rate (requests per simulated second),
  /// split across shards (remainder to the lowest shard indices).
  int requests_per_s = 2000;
  /// Fraction of live-mode requests arriving as handoffs.
  double handoff_fraction = 0.25;
  /// Independent cells served (fixed by config — never by thread count).
  int shards = 4;
  /// Worker threads draining shards (1 = serial; 0 = hardware concurrency).
  /// Pure throughput knob: telemetry is byte-identical for every value.
  int threads = 1;
  /// Admission-batching window: requests buffer at most this long before
  /// the batch is decided (seconds, <= 1).  0.1 s keeps batches large
  /// enough (~50 requests at the paper-grid rate) to fill decide_batch's
  /// blocks of InferenceEngine::kLanes decisions, which its vector lane
  /// kernel evaluates together.
  double batch_window_s = 0.1;
  /// A batch also closes when it reaches this many requests.
  int batch_max = 256;
  /// Human-readable scenario name for the summary's run-metadata block
  /// (catalog name or config path; set by the CLI, purely descriptive).
  std::string scenario_label;

  /// Throws facsp::ConfigError on invalid values (`live` adds the
  /// live-mode-only requirements: positive duration and rate).
  void validate(bool live) const;
};

/// Per-second decision-latency percentiles (wall clock — deterministic in
/// *shape* only, never byte-stable; kept out of the telemetry CSV).
struct LatencyRow {
  std::int64_t window = 0;
  std::uint64_t samples = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  double mean_ns = 0.0;
  std::uint64_t max_ns = 0;
};

/// Everything one server run produced.
struct ServerResult {
  double window_s = 1.0;
  /// Deterministic per-second counters, merged across shards.
  std::vector<TelemetryRow> telemetry;
  /// Wall-clock latency per second (separate CSV; non-deterministic).
  std::vector<LatencyRow> latency;
  /// All decision latencies over the whole run.
  obs::LocalHistogram overall;
  std::int64_t total_decisions = 0;
  std::int64_t total_admitted = 0;
  /// Wall-clock duration of the serving loop.
  double wall_s = 0.0;

  double decisions_per_s() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(total_decisions) / wall_s : 0.0;
  }
};

/// One serving shard's admission core: the shard's cell, policy instance,
/// expiry heap and per-second telemetry/latency accumulators, with the
/// batched decide -> re-check -> apply -> count step as a reusable unit.
/// DecisionServer drives one core per shard from a RequestStream; the
/// socket front-end (src/net/) drives the same cores from connection input.
/// Whoever drives it, the telemetry a core produces is a pure function of
/// the (time-ordered) batch sequence it is fed — this is what makes the
/// socket replay path byte-identical to the in-process one.
///
/// Contract: batches must arrive in nondecreasing time order, each batch
/// entirely inside one simulated second, and finish_second(s) must be
/// called for every second in increasing order (it opens skipped empty
/// windows itself).  Steady state allocates nothing: every container is
/// reserved at construction (plus reserve_windows for the horizon), except
/// the documented one-ledger-node-per-admission in BaseStation::allocate.
class ShardCore {
 public:
  /// Builds the shard's network and policy exactly like the decision
  /// server always has: RNG streams rooted at
  /// hash_seed(scenario.seed, "serve-cell", shard_index).
  ShardCore(const ServerConfig& config, int shard_index);

  ShardCore(const ShardCore&) = delete;
  ShardCore& operator=(const ShardCore&) = delete;

  /// Decide one time-ordered batch (all arrivals within one second),
  /// re-check physical capacity, apply admissions, update the second's
  /// telemetry row and latency histogram.  Returns the per-request
  /// decisions with `admitted` reflecting the post-re-check outcome —
  /// valid until the next process_batch call.
  std::span<const cac::AdmissionDecision> process_batch(
      std::span<const cac::AdmissionRequest> batch,
      std::span<const double> holding_s);

  /// Close simulated second `second`: release calls ending in its tail and
  /// stamp the row's active_sessions.  Resets the per-second latency
  /// histogram when the second had no batches, so second_hist() always
  /// describes exactly `second` afterwards.
  void finish_second(std::int64_t second);

  void reserve_windows(std::size_t n) { window_.reserve_windows(n); }

  RollingWindow& window() noexcept { return window_; }
  const RollingWindow& window() const noexcept { return window_; }
  const obs::LocalHistogram& second_hist() const noexcept {
    return second_hist_;
  }
  /// Sessions currently holding bandwidth (size of the expiry heap).
  std::size_t active_sessions() const noexcept { return expiries_.size(); }
  /// The shard's cell (live request streams need the layout and the centre
  /// base station's position).
  const cellular::CellularNetwork& network() const noexcept { return *net_; }

 private:
  struct Expiry {
    double at = 0.0;
    cellular::ConnectionId id = 0;
  };

  void expire_until(double t, bool strict);

  sim::RngFactory rng_;
  std::unique_ptr<cellular::CellularNetwork> net_;
  std::unique_ptr<cac::AdmissionPolicy> policy_;
  RollingWindow window_;
  obs::LocalHistogram second_hist_;  ///< reset at each second's first batch
  std::vector<Expiry> expiries_;  ///< min-heap on `at`
  std::vector<cac::AdmissionDecision> decisions_;
  std::int64_t current_second_ = -1;
};

/// Seal simulated second `second` into `result`: merge each core's row and
/// second_hist() in the given (fixed) order, add the merged row to the
/// totals and the telemetry, append the second's LatencyRow and merge its
/// latencies into `overall`.  Every core must have finished `second`.
/// DecisionServer and the socket front-end both seal seconds through this,
/// which is what keeps their telemetry identical.  Returns the merged row.
const TelemetryRow& append_second(ServerResult& result, std::int64_t second,
                                  std::span<const ShardCore* const> cores);

/// Close time of a batch opened by an arrival at simulated time `t0`: the
/// next batch_window_s boundary after t0, never past the end of t0's
/// simulated second.  The one batch-close rule of batch_end() and the
/// socket front-end's watermark closure.
double batch_close(double t0, double batch_window_s) noexcept;

/// Greedy batching step shared by the serving loop and the socket
/// front-end: for time-sorted `arrivals` with an open batch starting at
/// `i`, returns the exclusive end `j` of that batch.  The batch closes at
/// batch_close(arrivals[i].now, batch_window_s) or at batch_max requests.
std::size_t batch_end(std::span<const cac::AdmissionRequest> arrivals,
                      std::size_t i, double batch_window_s,
                      int batch_max) noexcept;

/// The serving loop.  Construct in live mode (requests synthesised by the
/// workload layer) or replay mode (requests read from a recorded trace,
/// partitioned round-robin across shards), then run() once.
class DecisionServer {
 public:
  explicit DecisionServer(const ServerConfig& config);
  DecisionServer(const ServerConfig& config, std::vector<StampedRequest> trace);
  ~DecisionServer();

  DecisionServer(const DecisionServer&) = delete;
  DecisionServer& operator=(const DecisionServer&) = delete;

  std::int64_t duration_s() const noexcept { return duration_s_; }

  /// Optional observer called after each simulated second's fixed-order
  /// merge with the merged row — the hook behind --metrics-interval's
  /// periodic snapshot flushing.  Must be set before run().  The hook runs
  /// on the caller's thread, outside the parallel region; keep it cheap
  /// (it is on the serving loop's critical path).
  using SecondHook =
      std::function<void(std::int64_t second, const TelemetryRow& merged)>;
  void set_second_hook(SecondHook hook) { second_hook_ = std::move(hook); }

  /// Serve the configured duration and return the merged result.
  ServerResult run();

 private:
  struct Shard;
  void build_shards();
  void run_second(Shard& shard, std::int64_t second);

  ServerConfig config_;
  std::vector<StampedRequest> trace_;
  bool replay_ = false;
  std::int64_t duration_s_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<const ShardCore*> cores_;  ///< shards_[i]->core, merge order
  SecondHook second_hook_;
};

/// Generate the live-mode request streams for `duration_s` seconds and
/// return all requests merged and sorted by (arrival, id) — what
/// `scenario_runner trace record` writes.  Pure function of the config.
std::vector<StampedRequest> record_trace(const ServerConfig& config);

// --- rendering -------------------------------------------------------------

/// The telemetry CSV header line (column order is part of the format).
extern const char kTelemetryCsvHeader[];

/// One telemetry row in the CSV's byte-stable encoding (no newline-free
/// variant exists: the row ends with '\n').  write_telemetry_csv and the
/// telemetry scrape endpoint both funnel through this.
void write_telemetry_row(const TelemetryRow& row, std::ostream& os);

/// Deterministic telemetry CSV: one row per second, integer counters plus
/// CBP/CDP percentages derived from them (core::format_double — byte-stable
/// across runs, machines and thread counts).
void write_telemetry_csv(const ServerResult& result, std::ostream& os);
void write_telemetry_csv(const ServerResult& result, const std::string& path);

/// Wall-clock latency CSV (second, samples, p50/p95/p99/p99.9/mean/max ns).
/// NOT byte-stable — never diff this in CI.
void write_latency_csv(const ServerResult& result, std::ostream& os);
void write_latency_csv(const ServerResult& result, const std::string& path);

/// Run summary as JSON: totals, throughput, overall latency percentiles.
void write_summary_json(const ServerConfig& config, const ServerResult& result,
                        std::ostream& os);
void write_summary_json(const ServerConfig& config, const ServerResult& result,
                        const std::string& path);

/// Human-readable per-second view (decisions, CBP, CDP) as a sim::Figure
/// for aligned-table rendering on stdout.
sim::Figure telemetry_figure(const ServerResult& result);

}  // namespace facsp::serve
