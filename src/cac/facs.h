// FACS — the authors' *previous* fuzzy admission control system [14][15],
// implemented as the comparison baseline of Figs. 7 and 10.
//
// Differences from FACS-P (the paper's Sec. 3 contribution):
//  * FLC1's third input is the user's Distance from the base station
//    (Near/Middle/Far) instead of the requested bandwidth, and
//  * the Counter state Cs is the *plain* occupied bandwidth — no RTC/NRTC
//    differentiated counters, no priority weighting of on-going load.
#pragma once

#include "cac/facs_flc.h"
#include "cac/fuzzy_cac_base.h"

namespace facsp::cac {

/// Configuration of the FACS baseline.
struct FacsConfig {
  Flc1DistanceParams flc1{};
  Flc2Params flc2{};
  /// Admit when the crisp A/R exceeds this (0 = the NRNA centre).
  double accept_threshold = 0.28;
  /// Handoffs carry on-going calls, so even FACS favours them mildly
  /// (classic handoff prioritisation, ref [2]); FACS-P strengthens this.
  double handoff_score_bonus = 0.15;
};

/// The previous-work fuzzy CAC: FLC1-D (Sp, An, Di) -> Cv, FLC2 (Cv, Rq,
/// plain Cs) -> A/R.
class FacsPolicy final : public FuzzyCacBase {
 public:
  explicit FacsPolicy(const FacsConfig& config = {});

  std::string_view name() const noexcept override { return "FACS"; }

  const FacsConfig& config() const noexcept { return config_; }

 protected:
  double flc1_third_input(const AdmissionRequest& req) const override;
  double counter_state(const AdmissionRequest& req,
                       const cellular::BaseStation& bs) const override;

 private:
  FacsConfig config_;
};

}  // namespace facsp::cac
