#include "net/admission_service.h"

#include <cmath>
#include <limits>

#include "common/expects.h"
#include "obs/metrics.h"

namespace facsp::net {

namespace {

struct ServiceMetrics {
  obs::Counter& submitted;
  obs::Counter& decided;
  obs::Counter& shed;
  obs::Gauge& pending;

  static ServiceMetrics& get() {
    static ServiceMetrics m{
        obs::Registry::instance().counter("net.submitted"),
        obs::Registry::instance().counter("net.decided"),
        obs::Registry::instance().counter("net.shed"),
        obs::Registry::instance().gauge("net.pending"),
    };
    return m;
  }
};

}  // namespace

AdmissionService::NetShard::NetShard(const serve::ServerConfig& config,
                                     int index)
    : core(config, index) {
  const std::size_t cap = static_cast<std::size_t>(config.batch_max);
  batch.reserve(cap);
  holdings.reserve(cap);
  conns.reserve(cap);
  seqs.reserve(cap);
}

AdmissionService::AdmissionService(const serve::ServerConfig& config,
                                   std::size_t pending_cap,
                                   std::size_t reserve_seconds,
                                   double max_skew_s)
    : config_(config), pending_cap_(pending_cap), max_skew_s_(max_skew_s) {
  config_.validate(/*live=*/false);
  if (pending_cap_ < static_cast<std::size_t>(config_.batch_max))
    throw ConfigError("net: pending cap must be >= batch_max");
  if (!(max_skew_s_ > 0.0) || !std::isfinite(max_skew_s_))
    throw ConfigError("net: max skew must be positive and finite");
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<NetShard>(config_, s));
    shards_.back()->core.reserve_windows(reserve_seconds);
    cores_.push_back(&shards_.back()->core);
  }
  result_.telemetry.reserve(reserve_seconds);
  result_.latency.reserve(reserve_seconds);
}

AdmissionService::Submit AdmissionService::submit(
    std::uint64_t conn, const serve::StampedRequest& r) {
  const double t = r.req.now;
  // After drain the telemetry is sealed; anything further is out of order
  // by definition.
  if (drained_ || t < last_t_) return Submit::kReordered;
  // Bound forward skew before any second arithmetic: accepting t would
  // finalize every second between the watermark and t inline, so an
  // unbounded jump (one hostile frame) would wedge the loop and grow the
  // telemetry rows without limit.  The check also keeps the int64 cast
  // below well inside range.
  if (t - (last_t_ < 0.0 ? 0.0 : last_t_) > max_skew_s_)
    return Submit::kHorizon;

  const std::int64_t S = static_cast<std::int64_t>(std::floor(t));
  if (S > next_second_) {
    // The watermark entered a new second: every open batch belongs to an
    // earlier one (its close time is at most its second's end, which the
    // new arrival has passed), so decide them all, then seal the finished
    // seconds in fixed shard order — the exact merge DecisionServer runs.
    for (const auto& s : shards_)
      if (!s->batch.empty()) process_shard(*s);
    for (std::int64_t sec = next_second_; sec < S; ++sec)
      finalize_second(sec);
    next_second_ = S;
  }
  // Inside the current second, the watermark passing a batch's window
  // boundary closes it: any later same-shard arrival would be past the
  // boundary too, so the contents match serve::batch_end's partition while
  // responses never wait for the next same-shard arrival.
  for (const auto& s : shards_)
    if (!s->batch.empty() && s->close <= t) process_shard(*s);

  last_t_ = t;

  NetShard& shard = *shards_[static_cast<std::size_t>(
      seq_ % static_cast<std::uint64_t>(config_.shards))];
  ++seq_;

  if (pending_ >= pending_cap_) shed_oldest();

  if (shard.batch.empty())
    shard.close = serve::batch_close(t, config_.batch_window_s);
  shard.batch.push_back(r.req);
  shard.holdings.push_back(r.holding_s);
  shard.conns.push_back(conn);
  shard.seqs.push_back(seq_ - 1);
  ++pending_;
  ++submitted_;
  if (obs::metrics_enabled()) {
    ServiceMetrics& m = ServiceMetrics::get();
    m.submitted.add(1);
    m.pending.set(static_cast<std::int64_t>(pending_));
  }

  if (shard.batch.size() >= static_cast<std::size_t>(config_.batch_max))
    process_shard(shard);
  return Submit::kAccepted;
}

void AdmissionService::process_shard(NetShard& s) {
  const std::size_t n = s.batch.size();
  FACSP_EXPECTS(n > 0);
  const std::span<const cac::AdmissionDecision> decisions =
      s.core.process_batch(
          std::span<const cac::AdmissionRequest>(s.batch.data(), n),
          std::span<const double>(s.holdings.data(), n));
  pending_ -= n;
  decided_ += n;
  if (obs::metrics_enabled()) {
    ServiceMetrics& m = ServiceMetrics::get();
    m.decided.add(n);
    m.pending.set(static_cast<std::int64_t>(pending_));
  }
  if (cb_.on_decision)
    for (std::size_t k = 0; k < n; ++k)
      cb_.on_decision(s.conns[k], s.batch[k], decisions[k]);
  s.batch.clear();
  s.holdings.clear();
  s.conns.clear();
  s.seqs.clear();
}

void AdmissionService::finalize_second(std::int64_t sec) {
  for (const auto& s : shards_) s->core.finish_second(sec);
  const serve::TelemetryRow& merged =
      serve::append_second(result_, sec, cores_);
  if (second_hook_) second_hook_(sec, merged);
}

void AdmissionService::shed_oldest() {
  std::size_t best = shards_.size();
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->batch.empty()) continue;
    if (shards_[i]->seqs.front() < best_seq) {
      best_seq = shards_[i]->seqs.front();
      best = i;
    }
  }
  if (best == shards_.size()) return;  // cap 0 edge: nothing pending
  NetShard& s = *shards_[best];
  const std::uint64_t conn = s.conns.front();
  const std::uint64_t rid = s.batch.front().id;
  // O(batch) erase, only ever paid under overload; the batch stays in
  // arrival order and its close time is unchanged (all members share the
  // dropped request's second).
  s.batch.erase(s.batch.begin());
  s.holdings.erase(s.holdings.begin());
  s.conns.erase(s.conns.begin());
  s.seqs.erase(s.seqs.begin());
  --pending_;
  ++shed_;
  if (obs::metrics_enabled()) {
    ServiceMetrics& m = ServiceMetrics::get();
    m.shed.add(1);
    m.pending.set(static_cast<std::int64_t>(pending_));
  }
  if (cb_.on_dropped) cb_.on_dropped(conn, rid);
}

void AdmissionService::flush_open_batches() {
  for (const auto& s : shards_)
    if (!s->batch.empty()) process_shard(*s);
}

void AdmissionService::drain() {
  if (drained_) return;
  flush_open_batches();
  if (last_t_ >= 0.0) {
    const std::int64_t S = static_cast<std::int64_t>(std::floor(last_t_));
    for (std::int64_t sec = next_second_; sec <= S; ++sec)
      finalize_second(sec);
    next_second_ = S + 1;
  }
  drained_ = true;
}

}  // namespace facsp::net
