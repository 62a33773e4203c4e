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
#include "cellular/network.h"

namespace facsp::cac {

/// The previous-work fuzzy CAC: FLC1-D (Sp, An, Di) -> Cv, FLC2 (Cv, Rq,
/// plain Cs) -> A/R.  FLC2 is the process's shared one; FLC1-D is built for
/// the network's cell radius.
class FacsPolicy final : public FuzzyCacBase {
 public:
  /// Admit when the crisp A/R exceeds this (0 = the NRNA centre).
  static constexpr double kAcceptThreshold = 0.28;
  /// Handoffs carry on-going calls, so even FACS favours them mildly
  /// (classic handoff prioritisation, ref [2]); FACS-P strengthens this.
  static constexpr double kHandoffScoreBonus = 0.15;

  /// Reads only the network's cell radius; keeps no reference to it.
  explicit FacsPolicy(const cellular::CellularNetwork& network);

  std::string_view name() const noexcept override { return "FACS"; }

 protected:
  double flc1_third_input(const AdmissionRequest& req) const override;
  double counter_state(const AdmissionRequest& req,
                       const cellular::BaseStation& bs) const override;
};

}  // namespace facsp::cac
