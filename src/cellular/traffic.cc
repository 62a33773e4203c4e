#include "cellular/traffic.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::cellular {

void TrafficConfig::validate() const {
  require_finite("traffic",
                 {arrival_window_s, mean_holding_s, min_speed_kmh,
                  max_speed_kmh, fixed_speed_kmh.value_or(0.0),
                  fixed_angle_deg.value_or(0.0), priority_low,
                  priority_normal, priority_high});
  mix.validate();
  arrival.validate();
  mix_schedule.validate();
  if (arrival_window_s < 0.0)
    throw ConfigError("traffic: arrival window must be >= 0");
  if (mean_holding_s <= 0.0)
    throw ConfigError("traffic: mean holding time must be > 0");
  if (min_speed_kmh < 0.0 || max_speed_kmh < min_speed_kmh)
    throw ConfigError("traffic: speed range invalid");
  if (fixed_speed_kmh && *fixed_speed_kmh < 0.0)
    throw ConfigError("traffic: fixed speed must be >= 0");
  if (fixed_angle_deg &&
      (*fixed_angle_deg < -180.0 || *fixed_angle_deg > 180.0))
    throw ConfigError("traffic: fixed angle must be in [-180, 180]");
  if (priority_low < 0.0 || priority_normal < 0.0 || priority_high < 0.0 ||
      std::fabs(priority_low + priority_normal + priority_high - 1.0) > 1e-6)
    throw ConfigError(
        "traffic: priority shares must be non-negative and sum to 1");
}

TrafficGenerator::TrafficGenerator(TrafficConfig config,
                                   const HexLayout& layout,
                                   HexCoord spawn_cell, Point bs_position,
                                   sim::RandomStream rng,
                                   ConnectionId first_id)
    : config_(std::move(config)),
      layout_(layout),
      spawn_cell_(spawn_cell),
      bs_position_(bs_position),
      rng_(rng),
      next_id_(first_id) {
  // Validate before constructing the distributions: discrete_distribution
  // requires non-negative weights, which only validate() guarantees.
  config_.validate();
  arrival_ = workload::make_arrival_process(config_.arrival);
  priority_dist_ = std::discrete_distribution<std::size_t>(
      {config_.priority_low, config_.priority_normal, config_.priority_high});
  rebuild_service_dist(config_.mix);
}

void TrafficGenerator::rebuild_service_dist(const TrafficMix& mix) {
  service_dist_ = std::discrete_distribution<std::size_t>(
      {mix.text, mix.voice, mix.video});
}

CallRequest TrafficGenerator::make_request(sim::SimTime arrival,
                                           sim::SimTime t0) {
  CallRequest req;
  req.id = next_id_++;
  req.arrival_time = arrival;

  if (!config_.mix_schedule.empty()) {
    const int seg = config_.mix_schedule.segment_at(arrival - t0);
    if (seg != active_mix_segment_) {
      rebuild_service_dist(
          seg < 0 ? config_.mix
                  : config_.mix_schedule.segments()
                        [static_cast<std::size_t>(seg)].mix);
      active_mix_segment_ = seg;
    }
  }
  req.service = kAllServices[service_dist_(rng_.engine())];
  req.bandwidth = service_bandwidth(req.service);
  req.priority = kAllPriorities[priority_dist_(rng_.engine())];
  req.holding_time = rng_.exponential(config_.mean_holding_s);

  req.mobile.position = layout_.random_point_in_cell(
      spawn_cell_, [this] { return rng_.uniform(0.0, 1.0); });
  req.mobile.speed_kmh =
      config_.fixed_speed_kmh
          ? *config_.fixed_speed_kmh
          : rng_.uniform(config_.min_speed_kmh, config_.max_speed_kmh);

  if (config_.fixed_angle_deg) {
    // Heading such that the angle to the BS has the requested magnitude;
    // the sign (left/right of the BS bearing) is random, matching the
    // paper's symmetric L/R rule tables.
    const double bearing = heading_deg(req.mobile.position, bs_position_);
    const double sign = rng_.bernoulli(0.5) ? 1.0 : -1.0;
    req.mobile.heading_deg =
        wrap_angle_deg(bearing + sign * *config_.fixed_angle_deg);
  } else {
    req.mobile.heading_deg = rng_.uniform(-180.0, 180.0);
  }
  return req;
}

void TrafficGenerator::generate_into(int n, sim::SimTime t0,
                                     std::vector<CallRequest>& out) {
  FACSP_EXPECTS(n >= 0);
  arrival_->generate(n, t0, config_.arrival_window_s, rng_, arrival_scratch_);

  // Arrivals are sorted, so mix-schedule segments advance monotonically
  // within a batch; reset the cache so each batch starts from the base mix.
  if (!config_.mix_schedule.empty()) {
    rebuild_service_dist(config_.mix);
    active_mix_segment_ = -1;
  }

  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (sim::SimTime arrival : arrival_scratch_)
    out.push_back(make_request(arrival, t0));
}

std::vector<CallRequest> TrafficGenerator::generate(int n, sim::SimTime t0) {
  std::vector<CallRequest> out;
  generate_into(n, t0, out);
  return out;
}

}  // namespace facsp::cellular
