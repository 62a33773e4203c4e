#include "cellular/mobility.h"

#include <cmath>

#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::cellular {

double MobilityConfig::heading_sigma(double speed_kmh) const noexcept {
  const double s = std::max(0.0, speed_kmh);
  return base_sigma_deg * reference_kmh / (s + reference_kmh);
}

MobilityModel::MobilityModel(MobilityConfig config, sim::RandomStream rng)
    : config_(config), rng_(rng) {
  FACSP_EXPECTS(config_.update_interval_s > 0.0);
}

void MobilityModel::advance(MobileState& state, sim::SimTime dt) {
  FACSP_EXPECTS(dt >= 0.0);
  const double v = kmh_to_ms(state.speed_kmh);
  const double h = deg_to_rad(state.heading_deg);
  state.position.x += v * dt * std::cos(h);
  state.position.y += v * dt * std::sin(h);

  // Scale the per-update volatility by sqrt(dt / update_interval) so that
  // using a finer event granularity does not change the diffusion rate.
  const double scale = std::sqrt(dt / config_.update_interval_s);
  const double sigma = config_.heading_sigma(state.speed_kmh) * scale;
  if (sigma > 0.0)
    state.heading_deg = wrap_angle_deg(
        state.heading_deg + rng_.normal(0.0, sigma));

  if (config_.speed_sigma_kmh > 0.0) {
    state.speed_kmh = clamp(
        state.speed_kmh + rng_.normal(0.0, config_.speed_sigma_kmh * scale),
        config_.min_speed_kmh, config_.max_speed_kmh);
  }
}

double angle_to_bs_deg(const MobileState& state, const Point& bs) noexcept {
  const double to_bs = heading_deg(state.position, bs);
  return wrap_angle_deg(state.heading_deg - to_bs);
}

DirectionPredictor::DirectionPredictor(Config config, sim::RandomStream rng)
    : config_(config), rng_(rng) {}

double DirectionPredictor::sigma_deg(double speed_kmh) const noexcept {
  const double s = std::max(0.0, speed_kmh);
  return config_.base_sigma_deg * config_.reference_kmh /
         (s + config_.reference_kmh);
}

double DirectionPredictor::predict_angle_deg(const MobileState& state,
                                             const Point& bs) {
  const double truth = angle_to_bs_deg(state, bs);
  const double sigma = sigma_deg(state.speed_kmh);
  if (sigma <= 0.0) return truth;
  return wrap_angle_deg(truth + rng_.normal(0.0, sigma));
}

}  // namespace facsp::cellular
