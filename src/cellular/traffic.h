// Workload generation: call requests with the paper's traffic parameters.
//
// Paper Sec. 4: speeds 0..120 km/h, directions -180..+180 deg, service mix
// 70/20/10 (text/voice/video) at 1/5/10 BU.  The x-axis of every figure is
// "number of requesting connections" N: a batch of N requests whose arrival
// times spread over a finite window, contending for the cell's 40 BU.
//
// *When* the N requests land inside the window is delegated to a pluggable
// workload::ArrivalProcess (default: the paper's conditioned-uniform /
// Poisson behaviour); *what* they ask for can vary over the window through a
// workload::MixSchedule (default: the constant configured mix).
#pragma once

#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "cellular/connection.h"
#include "cellular/hexgrid.h"
#include "cellular/mobility.h"
#include "cellular/service.h"
#include "sim/rng.h"
#include "workload/arrival.h"
#include "workload/mix_schedule.h"

namespace facsp::cellular {

/// One generated call request: who, what, when and the mobile's kinematics.
struct CallRequest {
  ConnectionId id = 0;
  ServiceClass service = ServiceClass::kText;
  Bandwidth bandwidth = 1.0;
  UserPriority priority = UserPriority::kNormal;
  sim::SimTime arrival_time = 0.0;
  sim::SimTime holding_time = 0.0;
  MobileState mobile;
};

/// Workload knobs.  Defaults reproduce the paper's scenario.
struct TrafficConfig {
  TrafficMix mix{};

  /// How the batch's arrival times are placed inside the window.  The
  /// default (conditioned uniform) reproduces the paper: requests arrive
  /// uniformly at random over [t0, t0 + arrival_window_s] (the order
  /// statistics of a Poisson process conditioned on N arrivals).
  workload::ArrivalSpec arrival{};

  /// Time-varying service mix; empty = `mix` applies for the whole window.
  workload::MixSchedule mix_schedule{};

  /// Length of the arrival window (seconds).
  double arrival_window_s = 900.0;

  /// Mean exponential call holding time.  300 s against a 900 s window makes
  /// offered load accumulate with N, reproducing the declining acceptance
  /// curves.
  double mean_holding_s = 300.0;

  /// Speed: fixed (Fig. 8 series) or uniform in [min, max] (other figures).
  std::optional<double> fixed_speed_kmh;
  double min_speed_kmh = 0.0;
  double max_speed_kmh = 120.0;

  /// Angle w.r.t. the base station: fixed magnitude with random sign
  /// (Fig. 9 series) or uniform in (-180, 180] (other figures).
  std::optional<double> fixed_angle_deg;

  /// Requesting-connection priority shares (low/normal/high); must be
  /// non-negative and sum to 1.  Ignored by priority-blind policies.
  double priority_low = 0.2;
  double priority_normal = 0.6;
  double priority_high = 0.2;

  /// Throws facsp::ConfigError on inconsistent ranges / negative times.
  void validate() const;
};

/// Generates batches of call requests inside one spawn cell.
class TrafficGenerator {
 public:
  /// Requests spawn uniformly inside `spawn_cell` of `layout`; their heading
  /// is derived from the angle policy relative to `bs_position`.
  /// `first_id` seeds the connection-id sequence (several generators in one
  /// simulation must use disjoint ranges).
  TrafficGenerator(TrafficConfig config, const HexLayout& layout,
                   HexCoord spawn_cell, Point bs_position,
                   sim::RandomStream rng, ConnectionId first_id = 1);

  /// Generate `n` requests with arrival times in [t0, t0+window], sorted by
  /// arrival time.  Connection ids are sequential starting from the value
  /// passed at the previous call (fresh generator starts at 1).
  std::vector<CallRequest> generate(int n, sim::SimTime t0 = 0.0);

  /// Like generate(), but fills `out` (cleared first) reusing its capacity
  /// and the internal arrival-time scratch: with the default arrival process
  /// and a constant mix, steady-state calls perform no heap allocation.
  void generate_into(int n, sim::SimTime t0, std::vector<CallRequest>& out);

  const TrafficConfig& config() const noexcept { return config_; }

 private:
  CallRequest make_request(sim::SimTime arrival, sim::SimTime t0);
  void rebuild_service_dist(const TrafficMix& mix);

  TrafficConfig config_;
  const HexLayout& layout_;
  HexCoord spawn_cell_;
  Point bs_position_;
  sim::RandomStream rng_;
  ConnectionId next_id_ = 1;
  std::unique_ptr<workload::ArrivalProcess> arrival_;
  std::vector<sim::SimTime> arrival_scratch_;
  /// Cached distributions (identical draws to constructing them per request,
  /// without the per-request heap allocation).  The service distribution is
  /// rebuilt only when a mix-schedule segment boundary is crossed.
  std::discrete_distribution<std::size_t> service_dist_;
  std::discrete_distribution<std::size_t> priority_dist_;
  int active_mix_segment_ = -1;
};

}  // namespace facsp::cellular
