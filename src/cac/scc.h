// Shadow Cluster Concept (SCC) — Levine, Akyildiz, Naghshineh,
// IEEE/ACM ToN 1997 (paper ref [16]); the baseline of Fig. 7.
//
// Every active mobile "casts a shadow" of probable future resource demand
// over the cells around its trajectory.  Each base station sums, for a set
// of future time windows, the probability-weighted bandwidth of every active
// mobile landing in its cell; a new call is admitted only if the projected
// demand — including the tentative shadow of the requester itself — stays
// within a capacity threshold for every window and every cell of the
// requester's shadow cluster.  Rejecting new calls this way is how SCC
// "reserves" resources for on-going calls that will hand off soon.
//
// Probability model: the mobile's position at now+tau is projected along its
// estimated heading at its current speed; heading uncertainty is Gaussian
// with the same speed-dependent sigma as the rest of this repository
// (slow => volatile), integrated with 7-point Gauss-Hermite quadrature.
// Call survival over tau is exponential (paper workloads use exponential
// holding times).
#pragma once

#include <unordered_map>
#include <vector>

#include "cac/policy.h"
#include "cellular/network.h"

namespace facsp::cac {

/// SCC tuning parameters.
struct SccConfig {
  /// Number of future windows checked (t = window_s, 2*window_s, ...).
  int windows = 3;
  /// Window length in seconds.
  double window_s = 60.0;
  /// Future windows admit while projected demand <= admit_threshold *
  /// capacity.  Levine et al. hold back a large margin so that predicted
  /// handoffs always find room; the small default makes SCC deny
  /// bandwidth-hungry calls even at light load (its hallmark
  /// over-reservation), while the current instant is only checked
  /// physically.
  double admit_threshold = 0.22;
  /// Mean call holding time used for survival discounting.
  double mean_holding_s = 300.0;
  /// When true (default), projected demand is discounted by the chance the
  /// call ends before the window (exponential holding); false keeps the
  /// fully pessimistic reservation for ablation.
  bool discount_survival = true;
  /// Cells around the target included in the admission check (the shadow
  /// cluster's reach): 1 = target + direct neighbours.
  int cluster_radius = 1;
  /// Heading-uncertainty model (same shape as DirectionPredictor).
  double heading_sigma_base_deg = 48.0;
  double heading_reference_kmh = 18.0;
  /// Tentative-cluster semantics (Levine Sec. III): every BS the new call
  /// may reach must be able to support it, so the requester is counted at
  /// FULL bandwidth in each cell whose reach probability exceeds
  /// `reach_probability_min`.  Set false to probability-weight the
  /// requester instead (optimistic variant, for ablation).
  bool tentative_full_bandwidth = true;
  double reach_probability_min = 0.05;

  /// Throws facsp::ConfigError on invalid values.
  void validate() const;
};

/// The SCC admission policy.
class SccPolicy final : public AdmissionPolicy {
 public:
  /// The network is used for cell geometry and neighbourhood lookups and
  /// must outlive the policy.
  SccPolicy(const cellular::CellularNetwork& network, SccConfig config = {});

  std::string_view name() const noexcept override { return "SCC"; }

  AdmissionDecision decide(const AdmissionRequest& req,
                           const cellular::BaseStation& bs) override;

  void on_admitted(const AdmissionRequest& req) override;
  void on_released(cellular::ConnectionId id) override;
  void on_mobility(cellular::ConnectionId id,
                   const cellular::MobileState& state,
                   sim::SimTime now) override;

  /// Probability that a mobile in `state` is inside `cell` after `tau`
  /// seconds (ignoring call termination).  Exposed for tests.
  double cell_probability(const cellular::MobileState& state,
                          const cellular::HexCoord& cell, double tau) const;

  /// Projected demand (BU) on `cell` at now+tau from all current actives.
  double projected_demand(const cellular::HexCoord& cell, double tau) const;

  std::size_t active_count() const noexcept { return actives_.size(); }

  const SccConfig& config() const noexcept { return config_; }

 private:
  struct Active {
    cellular::MobileState state;
    cellular::Bandwidth bw;
  };

  double heading_sigma_deg(double speed_kmh) const noexcept;
  double survival(double tau) const noexcept;

  const cellular::CellularNetwork& network_;
  SccConfig config_;
  std::unordered_map<cellular::ConnectionId, Active> actives_;
};

}  // namespace facsp::cac
