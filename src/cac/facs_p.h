// FACS-P — the paper's proposed Fuzzy Admission Control System with
// Priority of on-going connections (Sec. 3).
//
// Pipeline per Fig. 4:
//   User (Sp, An, Sr) -> FLC1 -> Cv
//   (Cv, Rq, Cs)      -> FLC2 -> Accept/Reject
// with the admitted calls feeding the differentiated-service counters RTC
// (voice+video) and NRTC (text), which the base station keeps
// (cellular::LoadState).  The Counter state Cs presented to FLC2 is the
// *priority-weighted* occupancy of those counters (effective_occupancy in
// cac/counters.h): real-time and handoff-continuing on-going load is
// inflated by weights >= 1, so the controller saturates earlier and
// protects the QoS of on-going calls — producing Fig. 10's crossover
// against plain FACS.  The policy holds no per-call state of its own.
#pragma once

#include "cac/counters.h"
#include "cac/facs_flc.h"
#include "cac/fuzzy_cac_base.h"

namespace facsp::cac {

/// The proposed policy.  Reads Cs from the target base station's RTC/NRTC
/// load (paper Fig. 4: the A/R output feeds the counters, which
/// cac::admit's allocation updates).  Every FacsPPolicy (and FacsPrPolicy)
/// shares the process's one FLC1/FLC2 pair and owns only its scratch.
class FacsPPolicy final : public FuzzyCacBase {
 public:
  /// Admit when the crisp A/R exceeds this (0 = the NRNA centre).
  static constexpr double kAcceptThreshold = 0.08;
  /// Score bonus for handoff continuations of on-going calls (stronger than
  /// FACS's: on-going connections are the priority class).
  static constexpr double kHandoffScoreBonus = 0.30;

  /// Throws facsp::ConfigError when a priority weight is below 1.
  explicit FacsPPolicy(const PriorityWeights& weights = {});

  std::string_view name() const noexcept override { return "FACS-P"; }

 protected:
  double flc1_third_input(const AdmissionRequest& req) const override;
  double counter_state(const AdmissionRequest& req,
                       const cellular::BaseStation& bs) const override;

 private:
  PriorityWeights weights_;
};

}  // namespace facsp::cac
