// User mobility: the Gauss-Markov style smooth-random-walk model and the
// direction predictor whose accuracy depends on speed.
//
// The paper's central mobility claim (Sec. 4, Fig. 8) is that direction is
// *stable* at high speed and *volatile* at low speed: "with the increase of
// the user speed, the user direction can not be changed easily, this results
// in a better prediction of the user direction".  Two components encode that:
//
//  * MobilityModel — advances a mobile's position; at each update the heading
//    receives a zero-mean Gaussian perturbation whose standard deviation
//    shrinks with speed (fast vehicles steer less per unit time).
//  * DirectionPredictor — what the base station *believes* the user's angle
//    is.  Prediction error has the same speed dependence, so a slow user
//    heading straight at the BS may still be *measured* as oblique, and vice
//    versa.  The CAC consumes predicted angles, never true ones.
#pragma once

#include "cellular/hexgrid.h"
#include "sim/event_queue.h"  // SimTime
#include "sim/rng.h"

namespace facsp::cellular {

/// Kinematic state of one mobile terminal.
struct MobileState {
  Point position;            ///< metres
  double speed_kmh = 0.0;    ///< magnitude of velocity
  double heading_deg = 0.0;  ///< direction of travel, (-180, 180]
};

/// Tuning of the speed-dependent direction volatility.
///
/// The per-update heading perturbation is
///     sigma(speed) = base_sigma_deg * reference_kmh / (speed + reference_kmh)
/// per sqrt(update_interval_s) second of travel — i.e. a slow pedestrian
/// (4 km/h) wanders with sigma ~= base_sigma, a 60 km/h vehicle with ~1/3 of
/// it.  Defaults give the paper's qualitative speed ordering.
struct MobilityConfig {
  double base_sigma_deg = 48.0;   ///< heading volatility scale
  double reference_kmh = 18.0;    ///< speed at which volatility halves
  double update_interval_s = 5.0; ///< mobility update period (> 0)
  double min_speed_kmh = 0.0;     ///< clamp for speed jitter
  double max_speed_kmh = 120.0;   ///< paper: speeds up to 120 km/h
  double speed_sigma_kmh = 0.0;   ///< optional speed jitter per update

  /// Heading perturbation stddev for one update at the given speed.
  double heading_sigma(double speed_kmh) const noexcept;
};

/// Advances mobile terminals with the smooth random-walk model.
class MobilityModel {
 public:
  /// Precondition: config.update_interval_s > 0 (ScenarioConfig::validate()
  /// refuses anything else).
  MobilityModel(MobilityConfig config, sim::RandomStream rng);

  const MobilityConfig& config() const noexcept { return config_; }

  /// Advance `state` by dt seconds: move along the current heading, then
  /// perturb heading (and optionally speed) for the next leg.
  void advance(MobileState& state, sim::SimTime dt);

  /// Convert km/h to m/s.
  static double kmh_to_ms(double kmh) noexcept { return kmh / 3.6; }

 private:
  MobilityConfig config_;
  sim::RandomStream rng_;
};

/// Angle of travel relative to the base station: 0 deg means heading
/// straight at the BS, ±180 means directly away.  This is the `An` input of
/// FLC1.
double angle_to_bs_deg(const MobileState& state, const Point& bs) noexcept;

/// Base-station-side estimate of a user's angle.  Error shrinks with speed
/// (the paper's "better prediction of the user direction" at high speed).
class DirectionPredictor {
 public:
  /// sigma(speed) = base_sigma_deg * reference_kmh / (speed + reference_kmh).
  /// With defaults: 4 km/h -> ~39 deg, 30 km/h -> ~18 deg, 60 km/h -> ~11 deg.
  struct Config {
    double base_sigma_deg = 48.0;
    double reference_kmh = 18.0;
  };

  DirectionPredictor(Config config, sim::RandomStream rng);

  /// Predicted (noisy) angle-to-BS for the given true state.
  double predict_angle_deg(const MobileState& state, const Point& bs);

  /// Error stddev at a given speed (deterministic; exposed for tests).
  double sigma_deg(double speed_kmh) const noexcept;

 private:
  Config config_;
  sim::RandomStream rng_;
};

}  // namespace facsp::cellular
