#include "serve/decision_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <span>

#include "cellular/network.h"
#include "common/error.h"
#include "common/expects.h"
#include "common/file_io.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "fuzzy/inference.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"

namespace facsp::serve {

using core::format_double;

void ServerConfig::validate(bool live) const {
  scenario.validate();
  require_finite("server", {handoff_fraction, batch_window_s});
  if (shards < 1) throw ConfigError("server: shards must be >= 1");
  if (threads < 0) throw ConfigError("server: threads must be >= 0");
  if (batch_window_s <= 0.0 || batch_window_s > 1.0)
    throw ConfigError("server: batch_window_s must be in (0, 1]");
  if (batch_max < 1) throw ConfigError("server: batch_max must be >= 1");
  if (handoff_fraction < 0.0 || handoff_fraction > 1.0)
    throw ConfigError("server: handoff_fraction must be in [0, 1]");
  if (live) {
    if (duration_s <= 0) throw ConfigError("server: duration must be > 0");
    if (requests_per_s < 0)
      throw ConfigError("server: requests_per_s must be >= 0");
  }
}

namespace {

/// Disjoint connection-id range per shard (trace ids pass through as-is).
constexpr cellular::ConnectionId kShardIdStride = 1ull << 40;

/// This shard's share of the aggregate rate (remainder to low indices).
int shard_rate(int total, int shard, int shards) {
  return total / shards + (shard < total % shards ? 1 : 0);
}

struct ServeMetrics {
  obs::Counter& decisions;
  obs::Counter& admitted;
  obs::Histogram& batch_fill;
  obs::Histogram& batch_ns;
  obs::Gauge& active_sessions;

  static ServeMetrics& get() {
    static ServeMetrics m{
        obs::Registry::instance().counter("serve.decisions"),
        obs::Registry::instance().counter("serve.admitted"),
        obs::Registry::instance().histogram("serve.batch_fill"),
        obs::Registry::instance().histogram("serve.batch_ns"),
        obs::Registry::instance().gauge("serve.active_sessions"),
    };
    return m;
  }
};

struct ExpiryLater {
  template <typename E>
  bool operator()(const E& a, const E& b) const noexcept {
    return a.at > b.at;
  }
};

}  // namespace

// --- ShardCore -------------------------------------------------------------

ShardCore::ShardCore(const ServerConfig& config, int shard_index)
    : rng_(sim::hash_seed(config.scenario.seed, "serve-cell",
                          static_cast<std::uint64_t>(shard_index))) {
  net_ = std::make_unique<cellular::CellularNetwork>(
      config.scenario.rings, config.scenario.cell_radius_m,
      config.scenario.capacity_bu);
  policy_ = core::policy_factory_by_name(config.policy)(*net_, rng_);
  // Steady-state reservations: sessions are bounded by the cell capacity
  // (allocate() only succeeds while bandwidth fits), batches by batch_max.
  expiries_.reserve(static_cast<std::size_t>(config.scenario.capacity_bu) +
                    16);
  decisions_.reserve(static_cast<std::size_t>(config.batch_max));
}

void ShardCore::expire_until(double t, bool strict) {
  cellular::BaseStation& bs = net_->center();
  while (!expiries_.empty() &&
         (strict ? expiries_.front().at < t : expiries_.front().at <= t)) {
    std::pop_heap(expiries_.begin(), expiries_.end(), ExpiryLater{});
    const Expiry e = expiries_.back();
    expiries_.pop_back();
    bs.release(e.id, e.at);
    policy_->on_released(e.id);
  }
}

std::span<const cac::AdmissionDecision> ShardCore::process_batch(
    std::span<const cac::AdmissionRequest> batch,
    std::span<const double> holding_s) {
  FACSP_EXPECTS(!batch.empty());
  FACSP_EXPECTS(batch.size() == holding_s.size());
  const double t0 = batch.front().now;
  const std::int64_t sec = static_cast<std::int64_t>(std::floor(t0));
  FACSP_EXPECTS(sec >= current_second_);
  if (sec != current_second_) {
    second_hist_.reset();
    current_second_ = sec;
  }
  TelemetryRow& row = window_.row_for(sec);
  cellular::BaseStation& bs = net_->center();
  const std::size_t n = batch.size();

  // Free the bandwidth of calls that ended before this batch arrived, so
  // the policy sees the current load.
  expire_until(t0, /*strict=*/false);

  decisions_.resize(n);

  const auto start = std::chrono::steady_clock::now();
  policy_->decide_batch(batch, bs, decisions_);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t batch_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  second_hist_.record_n(std::max<std::uint64_t>(1, batch_ns / n), n);

  // Observability reuses the clock pair already read for the latency
  // histogram — tracing a batch costs no extra clock read.
  if (obs::Tracer::enabled())
    obs::Tracer::record("serve", "decide_batch", obs::Tracer::to_trace_ns(start),
                        batch_ns, static_cast<std::int64_t>(n));
  const bool metrics_on = obs::metrics_enabled();
  if (metrics_on) {
    ServeMetrics& m = ServeMetrics::get();
    m.decisions.add(n);
    m.batch_fill.record(n);
    m.batch_ns.record(batch_ns);
  }
  const std::int64_t admitted_before = row.admitted;

  row.queue_depth = std::max(row.queue_depth, static_cast<std::int64_t>(n));
  row.decisions += static_cast<std::int64_t>(n);

  for (std::size_t k = 0; k < n; ++k) {
    const cac::AdmissionRequest& req = batch[k];
    const bool handoff = req.kind == cellular::RequestKind::kHandoff;
    (handoff ? row.handoff_attempts : row.new_attempts) += 1;

    // decide_batch scores requests as-if independent; cac::admit re-checks
    // physical capacity and demotes over-admissions.  A duplicate in-flight
    // id (ids are client-controlled on the socket path) demotes the same way.
    const bool admitted =
        decisions_[k].admitted && cac::admit(*policy_, bs, req);
    decisions_[k].admitted = admitted;  // demotion visible to the caller
    if (admitted) {
      ++row.admitted;
      expiries_.push_back({req.now + holding_s[k], req.id});
      std::push_heap(expiries_.begin(), expiries_.end(), ExpiryLater{});
    } else {
      (handoff ? row.dropped_handoff : row.blocked_new) += 1;
    }
  }
  if (metrics_on)
    ServeMetrics::get().admitted.add(
        static_cast<std::uint64_t>(row.admitted - admitted_before));
  return {decisions_.data(), n};
}

void ShardCore::finish_second(std::int64_t second) {
  FACSP_EXPECTS(second >= current_second_);
  if (second != current_second_) {
    second_hist_.reset();  // no batches this second: the histogram is empty
    current_second_ = second;
  }
  TelemetryRow& row = window_.row_for(second);
  // Calls ending in this second's tail (strict <: a release exactly on the
  // window edge belongs to the next window).
  expire_until(static_cast<double>(second + 1), /*strict=*/true);
  row.active_sessions = static_cast<std::int64_t>(expiries_.size());
}

const TelemetryRow& append_second(ServerResult& result, std::int64_t second,
                                  std::span<const ShardCore* const> cores) {
  // Fixed-order merge: shard 0, 1, 2, ... regardless of which thread
  // finished first — this is what makes telemetry thread-count-invariant.
  TelemetryRow merged;
  merged.window = second;
  obs::LocalHistogram lat_hist;
  for (const ShardCore* core : cores) {
    FACSP_ENSURES(core->window().rows().back().window == second);
    merged.merge(core->window().rows().back());
    lat_hist.merge(core->second_hist());
  }
  result.total_decisions += merged.decisions;
  result.total_admitted += merged.admitted;
  result.telemetry.push_back(merged);
  if (obs::metrics_enabled())
    ServeMetrics::get().active_sessions.set(merged.active_sessions);

  LatencyRow lat;
  lat.window = second;
  lat.samples = lat_hist.count();
  if (lat.samples > 0) {
    lat.p50_ns = lat_hist.percentile_ns(0.50);
    lat.p95_ns = lat_hist.percentile_ns(0.95);
    lat.p99_ns = lat_hist.percentile_ns(0.99);
    lat.p999_ns = lat_hist.percentile_ns(0.999);
    lat.mean_ns = lat_hist.mean_ns();
    lat.max_ns = lat_hist.max_ns();
  }
  result.latency.push_back(lat);
  result.overall.merge(lat_hist);
  return result.telemetry.back();
}

double batch_close(double t0, double batch_window_s) noexcept {
  return std::min(std::floor(t0) + 1.0,
                  (std::floor(t0 / batch_window_s) + 1.0) * batch_window_s);
}

std::size_t batch_end(std::span<const cac::AdmissionRequest> arrivals,
                      std::size_t i, double batch_window_s,
                      int batch_max) noexcept {
  // The batch opens at the first buffered arrival and closes at its
  // batch_close() time or at batch_max requests.
  const double close = batch_close(arrivals[i].now, batch_window_s);
  std::size_t j = i + 1;
  while (j < arrivals.size() && j - i < static_cast<std::size_t>(batch_max) &&
         arrivals[j].now < close)
    ++j;
  return j;
}

struct DecisionServer::Shard {
  ShardCore core;
  std::unique_ptr<RequestStream> stream;
  /// Parallel per-second arrival arrays (contiguous so batches are plain
  /// sub-spans of `arrivals` — no per-batch request copy).
  std::vector<cac::AdmissionRequest> arrivals;
  std::vector<double> holdings;

  Shard(const ServerConfig& config, int index) : core(config, index) {}
};

DecisionServer::DecisionServer(const ServerConfig& config) : config_(config) {
  config_.validate(/*live=*/true);
  duration_s_ = config_.duration_s;
  build_shards();
}

DecisionServer::DecisionServer(const ServerConfig& config,
                               std::vector<StampedRequest> trace)
    : config_(config), trace_(std::move(trace)), replay_(true) {
  config_.validate(/*live=*/false);
  duration_s_ = config_.duration_s;
  if (duration_s_ <= 0 && !trace_.empty())
    duration_s_ =
        static_cast<std::int64_t>(std::floor(trace_.back().req.now)) + 1;
  if (duration_s_ <= 0)
    throw ConfigError("server: empty trace and no duration given");
  build_shards();
}

DecisionServer::~DecisionServer() = default;

void DecisionServer::build_shards() {
  // Validate the policy name once up front (ShardCore resolves it again per
  // shard; the registry hands every shard the same factory, so all shards
  // share one controller pair).
  (void)core::policy_factory_by_name(config_.policy);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>(config_, s);
    if (replay_) {
      shard->stream = std::make_unique<TraceReplayStream>(trace_, s,
                                                          config_.shards);
    } else {
      // RngFactory derives streams purely from (master seed, name), so a
      // factory rebuilt with the shard's seed hands the stream exactly the
      // draws it always received.
      const sim::RngFactory rng(sim::hash_seed(
          config_.scenario.seed, "serve-cell", static_cast<std::uint64_t>(s)));
      const cellular::CellularNetwork& net = shard->core.network();
      shard->stream = std::make_unique<WorkloadRequestStream>(
          config_.scenario.traffic, net.layout(), net.center().position(),
          config_.scenario.predictor, config_.handoff_fraction,
          shard_rate(config_.requests_per_s, s, config_.shards), rng,
          kShardIdStride * static_cast<cellular::ConnectionId>(s + 1) + 1);
    }
    shard->core.reserve_windows(static_cast<std::size_t>(duration_s_));
    cores_.push_back(&shard->core);
    shards_.push_back(std::move(shard));
  }
}

void DecisionServer::run_second(Shard& shard, std::int64_t second) {
  shard.arrivals.clear();
  shard.holdings.clear();
  shard.stream->next_second(second, shard.arrivals, shard.holdings);
  std::size_t i = 0;
  while (i < shard.arrivals.size()) {
    const std::size_t j = batch_end(shard.arrivals, i, config_.batch_window_s,
                                    config_.batch_max);
    shard.core.process_batch(
        std::span<const cac::AdmissionRequest>(shard.arrivals.data() + i,
                                               j - i),
        std::span<const double>(shard.holdings.data() + i, j - i));
    i = j;
  }
  shard.core.finish_second(second);
}

ServerResult DecisionServer::run() {
  ServerResult result;
  result.telemetry.reserve(static_cast<std::size_t>(duration_s_));
  result.latency.reserve(static_cast<std::size_t>(duration_s_));

  const unsigned threads = sim::ThreadPool::resolve_threads(config_.threads);
  std::unique_ptr<sim::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<sim::ThreadPool>(threads);

  const auto wall_start = std::chrono::steady_clock::now();
  for (std::int64_t sec = 0; sec < duration_s_; ++sec) {
    if (pool) {
      pool->parallel_for(shards_.size(), [this, sec](std::size_t s) {
        obs::ScopedSpan span("serve", "second",
                             static_cast<std::int64_t>(s));
        run_second(*shards_[s], sec);
      });
    } else {
      // Serial path kept free of std::function so steady-state seconds
      // perform no allocation at threads == 1.
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        obs::ScopedSpan span("serve", "second",
                             static_cast<std::int64_t>(s));
        run_second(*shards_[s], sec);
      }
    }
    const TelemetryRow& merged = append_second(result, sec, cores_);
    if (second_hook_) second_hook_(sec, merged);
  }
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  result.wall_s =
      std::chrono::duration<double>(wall_elapsed).count();
  return result;
}

std::vector<StampedRequest> record_trace(const ServerConfig& config) {
  config.validate(/*live=*/true);
  std::vector<StampedRequest> all;
  all.reserve(static_cast<std::size_t>(config.requests_per_s) *
              static_cast<std::size_t>(config.duration_s));
  for (int s = 0; s < config.shards; ++s) {
    // Same stream construction as the live server, minus the serving loop.
    cellular::CellularNetwork net(config.scenario.rings,
                                  config.scenario.cell_radius_m,
                                  config.scenario.capacity_bu);
    sim::RngFactory rng(sim::hash_seed(config.scenario.seed, "serve-cell",
                                       static_cast<std::uint64_t>(s)));
    WorkloadRequestStream stream(
        config.scenario.traffic, net.layout(), net.center().position(),
        config.scenario.predictor, config.handoff_fraction,
        shard_rate(config.requests_per_s, s, config.shards), rng,
        kShardIdStride * static_cast<cellular::ConnectionId>(s + 1) + 1);
    std::vector<cac::AdmissionRequest> reqs;
    std::vector<double> holdings;
    for (std::int64_t sec = 0; sec < config.duration_s; ++sec)
      stream.next_second(sec, reqs, holdings);
    for (std::size_t k = 0; k < reqs.size(); ++k)
      all.push_back({reqs[k], holdings[k]});
  }
  std::sort(all.begin(), all.end(),
            [](const StampedRequest& a, const StampedRequest& b) {
              return a.req.now != b.req.now ? a.req.now < b.req.now
                                            : a.req.id < b.req.id;
            });
  return all;
}

// --- rendering -------------------------------------------------------------

namespace {

}  // namespace

const char kTelemetryCsvHeader[] =
    "second,decisions,admitted,new_attempts,blocked_new,"
    "handoff_attempts,dropped_handoff,queue_depth,active_sessions,"
    "cbp_pct,cdp_pct\n";

void write_telemetry_row(const TelemetryRow& r, std::ostream& os) {
  os << r.window << ',' << r.decisions << ',' << r.admitted << ','
     << r.new_attempts << ',' << r.blocked_new << ',' << r.handoff_attempts
     << ',' << r.dropped_handoff << ',' << r.queue_depth << ','
     << r.active_sessions << ',' << format_double(r.cbp_pct()) << ','
     << format_double(r.cdp_pct()) << '\n';
}

void write_telemetry_csv(const ServerResult& result, std::ostream& os) {
  os << kTelemetryCsvHeader;
  for (const TelemetryRow& r : result.telemetry) write_telemetry_row(r, os);
}

void write_telemetry_csv(const ServerResult& result, const std::string& path) {
  write_file(path, [&](std::ostream& os) { write_telemetry_csv(result, os); });
}

void write_latency_csv(const ServerResult& result, std::ostream& os) {
  os << "second,samples,p50_ns,p95_ns,p99_ns,p999_ns,mean_ns,max_ns\n";
  for (const LatencyRow& r : result.latency) {
    os << r.window << ',' << r.samples << ',' << r.p50_ns << ',' << r.p95_ns
       << ',' << r.p99_ns << ',' << r.p999_ns << ','
       << format_double(r.mean_ns) << ',' << r.max_ns << '\n';
  }
}

void write_latency_csv(const ServerResult& result, const std::string& path) {
  write_file(path, [&](std::ostream& os) { write_latency_csv(result, os); });
}

void write_summary_json(const ServerConfig& config, const ServerResult& result,
                        std::ostream& os) {
  std::int64_t blocked = 0, dropped = 0, news = 0, handoffs = 0;
  for (const TelemetryRow& r : result.telemetry) {
    blocked += r.blocked_new;
    dropped += r.dropped_handoff;
    news += r.new_attempts;
    handoffs += r.handoff_attempts;
  }
  const double cbp =
      news > 0 ? 100.0 * static_cast<double>(blocked) / news : 0.0;
  const double cdp =
      handoffs > 0 ? 100.0 * static_cast<double>(dropped) / handoffs : 0.0;
  os << "{\n"
     << "  \"policy\": \"" << config.policy << "\",\n"
     << "  \"seed\": " << config.scenario.seed << ",\n"
     << "  \"shards\": " << config.shards << ",\n"
     << "  \"threads\": " << config.threads << ",\n"
     << "  \"metadata\": {\"seed\": " << config.scenario.seed
     << ", \"policy\": \"" << config.policy << "\", \"scenario\": \""
     << config.scenario_label << "\", \"shards\": " << config.shards
     << ", \"threads\": " << config.threads
     << ", \"simd\": " << (fuzzy::lane_simd_available() ? "true" : "false")
     << ", \"latency_histogram\": {\"sub_bucket_bits\": "
     << obs::LocalHistogram::kSubBucketBits
     << ", \"max_shift\": " << obs::LocalHistogram::kMaxShift
     << ", \"buckets\": " << obs::LocalHistogram::kBucketCount << "}},\n"
     << "  \"duration_s\": " << result.telemetry.size() << ",\n"
     << "  \"total_decisions\": " << result.total_decisions << ",\n"
     << "  \"total_admitted\": " << result.total_admitted << ",\n"
     << "  \"cbp_pct\": " << format_double(cbp) << ",\n"
     << "  \"cdp_pct\": " << format_double(cdp) << ",\n"
     << "  \"wall_s\": " << format_double(result.wall_s) << ",\n"
     << "  \"decisions_per_s\": " << format_double(result.decisions_per_s())
     << ",\n"
     << "  \"latency_ns\": ";
  if (result.overall.count() > 0) {
    os << "{\"p50\": " << result.overall.percentile_ns(0.50)
       << ", \"p95\": " << result.overall.percentile_ns(0.95)
       << ", \"p99\": " << result.overall.percentile_ns(0.99)
       << ", \"p999\": " << result.overall.percentile_ns(0.999)
       << ", \"mean\": " << format_double(result.overall.mean_ns())
       << ", \"max\": " << result.overall.max_ns() << "}\n";
  } else {
    os << "null\n";
  }
  os << "}\n";
}

void write_summary_json(const ServerConfig& config, const ServerResult& result,
                        const std::string& path) {
  write_file(path, [&](std::ostream& os) {
    write_summary_json(config, result, os);
  });
}

sim::Figure telemetry_figure(const ServerResult& result) {
  sim::Figure fig("decision server telemetry", "second", "per-second value");
  sim::Series& decisions = fig.add_series("decisions");
  sim::Series& cbp = fig.add_series("CBP %");
  sim::Series& cdp = fig.add_series("CDP %");
  sim::Series& active = fig.add_series("active");
  for (const TelemetryRow& r : result.telemetry) {
    const double x = static_cast<double>(r.window);
    decisions.add(x, static_cast<double>(r.decisions));
    cbp.add(x, r.cbp_pct());
    cdp.add(x, r.cdp_pct());
    active.add(x, static_cast<double>(r.active_sessions));
  }
  return fig;
}

}  // namespace facsp::serve
