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

/// The SCC admission policy.
class SccPolicy final : public AdmissionPolicy {
 public:
  /// Number of future windows checked (t = kWindowS, 2*kWindowS, ...).
  static constexpr int kWindows = 3;
  /// Window length in seconds.
  static constexpr double kWindowS = 60.0;
  /// Future windows admit while projected demand <= kAdmitThreshold *
  /// capacity.  Levine et al. hold back a large margin so that predicted
  /// handoffs always find room; this small value makes SCC deny
  /// bandwidth-hungry calls even at light load (its hallmark
  /// over-reservation), while the current instant is only checked
  /// physically.
  static constexpr double kAdmitThreshold = 0.22;
  /// Mean call holding time (s): projected demand is discounted by the
  /// chance the call ends before the window (exponential holding).
  static constexpr double kMeanHoldingS = 300.0;
  /// Cells around the target included in the admission check (the shadow
  /// cluster's reach): 1 = target + direct neighbours.
  static constexpr int kClusterRadius = 1;
  /// Heading-uncertainty model (same shape as DirectionPredictor).
  static constexpr double kHeadingSigmaBaseDeg = 48.0;
  static constexpr double kHeadingReferenceKmh = 18.0;
  /// Tentative-cluster semantics (Levine Sec. III): every BS the new call
  /// may reach must be able to support it, so the requester is counted at
  /// full bandwidth in each cell whose reach probability exceeds this.
  static constexpr double kReachProbabilityMin = 0.05;

  /// The network is used for cell geometry and neighbourhood lookups and
  /// must outlive the policy.
  explicit SccPolicy(const cellular::CellularNetwork& network);

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

 private:
  struct Active {
    cellular::MobileState state;
    cellular::Bandwidth bw;
  };

  const cellular::CellularNetwork& network_;
  std::unordered_map<cellular::ConnectionId, Active> actives_;
};

}  // namespace facsp::cac
