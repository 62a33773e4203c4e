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

#include <memory>
#include <span>

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
  /// Builds a private FLC1/FLC2 pair from config.base.
  explicit FacsPrPolicy(const FacsPrConfig& config = {});

  /// Shares an already-built pair (make_facs_p_flc1/flc2 of config.base)
  /// with the inner FACS-P.
  FacsPrPolicy(const FacsPrConfig& config,
               std::shared_ptr<const fuzzy::FuzzyController> flc1,
               std::shared_ptr<const fuzzy::FuzzyController> flc2);

  std::string_view name() const noexcept override { return "FACS-PR"; }

  AdmissionDecision decide(const AdmissionRequest& req,
                           const cellular::BaseStation& bs) override;

  /// FACS-P's batched cascade, then the same per-priority re-threshold as
  /// decide() on every new-call row, so each decision equals decide()'s.
  void decide_batch(std::span<const AdmissionRequest> reqs,
                    const cellular::BaseStation& bs,
                    std::span<AdmissionDecision> out) override;

  const FacsPrConfig& config() const noexcept { return config_; }

  /// The effective accept threshold applied to a given priority.
  double threshold_for(cellular::UserPriority p) const noexcept;

  const fuzzy::FuzzyController& flc1() const noexcept { return inner_.flc1(); }
  const fuzzy::FuzzyController& flc2() const noexcept { return inner_.flc2(); }

 private:
  FacsPrConfig config_;
  FacsPPolicy inner_;
};

}  // namespace facsp::cac
