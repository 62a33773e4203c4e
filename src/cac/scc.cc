#include "cac/scc.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::cac {

namespace {

// 7-point Gauss-Hermite quadrature for E[f(X)], X ~ N(0,1):
// E[f(X)] ~= sum_i w_i * f(sqrt(2) * t_i), weights normalised by 1/sqrt(pi).
struct GhNode {
  double t;
  double w;
};
constexpr std::array<GhNode, 7> kGaussHermite = {{
    {-2.651961356835233, 0.0009717812450995192 / 1.7724538509055160},
    {-1.673551628767471, 0.05451558281912703 / 1.7724538509055160},
    {-0.8162878828589647, 0.4256072526101278 / 1.7724538509055160},
    {0.0, 0.8102646175568073 / 1.7724538509055160},
    {0.8162878828589647, 0.4256072526101278 / 1.7724538509055160},
    {1.673551628767471, 0.05451558281912703 / 1.7724538509055160},
    {2.651961356835233, 0.0009717812450995192 / 1.7724538509055160},
}};

double heading_sigma_deg(double speed_kmh) noexcept {
  const double s = std::max(0.0, speed_kmh);
  return SccPolicy::kHeadingSigmaBaseDeg * SccPolicy::kHeadingReferenceKmh /
         (s + SccPolicy::kHeadingReferenceKmh);
}

/// Chance a call is still up after tau seconds (exponential holding).
double survival(double tau) noexcept {
  return std::exp(-tau / SccPolicy::kMeanHoldingS);
}

}  // namespace

SccPolicy::SccPolicy(const cellular::CellularNetwork& network)
    : network_(network) {}

double SccPolicy::cell_probability(const cellular::MobileState& state,
                                   const cellular::HexCoord& cell,
                                   double tau) const {
  FACSP_EXPECTS(tau >= 0.0);
  const double v_ms = state.speed_kmh / 3.6;
  const double sigma = heading_sigma_deg(state.speed_kmh);
  // Heading diffuses over time: after tau seconds of random steering the
  // accumulated deviation grows like sqrt(tau / 60 s) of the per-minute
  // volatility — slow users' shadows widen much faster than vehicles'.
  const double spread = sigma * std::sqrt(std::max(tau, 1.0) / 60.0);

  double p = 0.0;
  for (const GhNode& node : kGaussHermite) {
    const double h = deg_to_rad(
        state.heading_deg + std::sqrt(2.0) * spread * node.t);
    const cellular::Point proj{state.position.x + v_ms * tau * std::cos(h),
                               state.position.y + v_ms * tau * std::sin(h)};
    if (network_.layout().cell_at(proj) == cell) p += node.w;
  }
  return std::min(p, 1.0);
}

double SccPolicy::projected_demand(const cellular::HexCoord& cell,
                                   double tau) const {
  double demand = 0.0;
  const double surv = survival(tau);
  for (const auto& [id, a] : actives_)
    demand += cell_probability(a.state, cell, tau) * a.bw * surv;
  return demand;
}

AdmissionDecision SccPolicy::decide(const AdmissionRequest& req,
                                    const cellular::BaseStation& bs) {
  AdmissionDecision d;
  if (!bs.can_fit(req.bandwidth)) {
    d.admitted = false;
    d.score = -1.0;
    d.verdict = Verdict::kReject;
    return d;
  }

  // Capacity headroom check for every cell of the requester's shadow
  // cluster over every future window, with the requester's own tentative
  // shadow included.
  double worst_margin = 1.0;  // fraction of capacity left, worst case
  const auto cluster =
      cellular::hex_disc(bs.coord(), kClusterRadius);
  for (int k = 1; k <= kWindows; ++k) {
    const double tau = k * kWindowS;
    const double surv = survival(tau);
    for (const cellular::HexCoord& cell : cluster) {
      const cellular::BaseStation* target = network_.station_at(cell);
      if (target == nullptr) continue;  // outside the modelled disc
      const double p_reach = cell_probability(req.mobile, cell, tau);
      const double req_share = p_reach > kReachProbabilityMin
                                   ? req.bandwidth
                                   : p_reach * req.bandwidth;
      double demand = projected_demand(cell, tau) + req_share;
      // A handoff requester is still registered as an active mobile (its
      // source-cell release happens only after admission); subtract its
      // existing shadow so it is not counted twice.
      if (const auto it = actives_.find(req.id); it != actives_.end())
        demand -= cell_probability(it->second.state, cell, tau) *
                  it->second.bw * surv;
      const double cap = kAdmitThreshold * target->capacity();
      const double margin = (cap - demand) / target->capacity();
      worst_margin = std::min(worst_margin, margin);
    }
  }

  // Current instant (tau = 0): only the physical fit constrains admission —
  // reservation margins apply to *future* windows.
  {
    const double now_margin =
        (bs.capacity() - (bs.load().used + req.bandwidth)) / bs.capacity();
    worst_margin = std::min(worst_margin, now_margin);
  }

  d.score = clamp(worst_margin * 2.0, -1.0, 1.0);  // margin -> [-1, 1] score
  d.admitted = worst_margin >= 0.0;
  d.verdict = verdict_from_score(d.score);
  return d;
}

void SccPolicy::on_admitted(const AdmissionRequest& req) {
  actives_[req.id] = Active{req.mobile, req.bandwidth};
}

void SccPolicy::on_released(cellular::ConnectionId id) {
  // A handoff releases on the source BS and re-admits on the target; the
  // re-admission path goes through decide()/on_admitted() which refreshes
  // the entry, so erasing here is correct for completions and safe for
  // handoffs (on_admitted re-inserts).
  actives_.erase(id);
}

void SccPolicy::on_mobility(cellular::ConnectionId id,
                            const cellular::MobileState& state,
                            sim::SimTime /*now*/) {
  const auto it = actives_.find(id);
  if (it != actives_.end()) it->second.state = state;
}

}  // namespace facsp::cac
