// FACS-PR — the paper's stated future work, implemented: FACS-P extended
// with *priority of requesting connections*.
//
// The paper closes with: "In this work, we considered only the priority of
// on-going connections.  In the future, we would like to consider also the
// priority of requesting connections."  FACS-PR realises that: each new
// request carries a UserPriority (low / normal / high), and the soft
// accept/reject decision is resolved against a priority-dependent
// threshold — a high-priority request is admitted on a Weak-Accept-or-
// better outlook even under load, while a low-priority one must earn a
// solid Accept.  Everything else (FLC1, FLC2, RTC/NRTC on-going priority,
// handoff bonus) is inherited unchanged from FACS-P, so the delta measured
// by bench_future_work is attributable to requesting-priority alone.
#pragma once

#include <span>

#include "cac/facs_p.h"

namespace facsp::cac {

/// FACS-P + priority of requesting connections.
class FacsPrPolicy final : public AdmissionPolicy {
 public:
  /// Threshold adjustments per requesting priority, *added* to FACS-P's
  /// accept threshold.  Low demands more, high demands less.
  static constexpr double kLowExtra = +0.15;
  static constexpr double kNormalExtra = 0.0;
  static constexpr double kHighExtra = -0.12;
  static_assert(kLowExtra >= kNormalExtra && kNormalExtra >= kHighExtra,
                "higher priority must not face a stricter threshold");

  /// The inner FACS-P uses the default on-going-priority weights.
  FacsPrPolicy() = default;

  std::string_view name() const noexcept override { return "FACS-PR"; }

  AdmissionDecision decide(const AdmissionRequest& req,
                           const cellular::BaseStation& bs) override;

  /// FACS-P's batched cascade, then the same per-priority re-threshold as
  /// decide() on every new-call row, so each decision equals decide()'s.
  void decide_batch(std::span<const AdmissionRequest> reqs,
                    const cellular::BaseStation& bs,
                    std::span<AdmissionDecision> out) override;

  /// The effective accept threshold applied to a given priority.
  double threshold_for(cellular::UserPriority p) const noexcept;

  const fuzzy::FuzzyController& flc1() const noexcept { return inner_.flc1(); }
  const fuzzy::FuzzyController& flc2() const noexcept { return inner_.flc2(); }

 private:
  FacsPPolicy inner_;
};

}  // namespace facsp::cac
