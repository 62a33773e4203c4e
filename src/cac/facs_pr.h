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

#include "cac/facs_p.h"

namespace facsp::cac {

/// Configuration of FACS-PR.
struct FacsPrConfig {
  /// The underlying FACS-P configuration (on-going priority et al.).
  FacsPConfig base{};
  /// Threshold adjustments per requesting priority, *added* to
  /// base.accept_threshold.  Low demands more, high demands less.
  double low_extra = +0.15;
  double normal_extra = 0.0;
  double high_extra = -0.12;
};

/// FACS-P + priority of requesting connections.
class FacsPrPolicy final : public AdmissionPolicy {
 public:
  explicit FacsPrPolicy(const FacsPrConfig& config = {});

  std::string_view name() const noexcept override { return "FACS-PR"; }

  AdmissionDecision decide(const AdmissionRequest& req,
                           const cellular::BaseStation& bs) override;

  const FacsPrConfig& config() const noexcept { return config_; }

  /// The effective accept threshold applied to a given priority.
  double threshold_for(cellular::UserPriority p) const noexcept;

 private:
  FacsPrConfig config_;
  FacsPPolicy inner_;
};

}  // namespace facsp::cac
