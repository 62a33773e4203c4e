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

#include <memory>

#include "cac/counters.h"
#include "cac/facs_flc.h"
#include "cac/fuzzy_cac_base.h"

namespace facsp::cac {

/// Configuration of FACS-P.
struct FacsPConfig {
  Flc1Params flc1{};
  Flc2Params flc2{};
  PriorityWeights weights{};
  /// Admit when the crisp A/R exceeds this (0 = the NRNA centre).
  double accept_threshold = 0.08;
  /// Score bonus for handoff continuations of on-going calls (stronger than
  /// FACS's: on-going connections are the priority class).
  double handoff_score_bonus = 0.30;
};

/// FLC1 (Table 1) and FLC2 (Table 2) as `config` describes them: its
/// membership breakpoints.
/// Each controller is immutable once built, so one pair may back every
/// FacsPPolicy (and FacsPrPolicy) made from the same config, on any thread.
std::shared_ptr<const fuzzy::FuzzyController> make_facs_p_flc1(
    const FacsPConfig& config);
std::shared_ptr<const fuzzy::FuzzyController> make_facs_p_flc2(
    const FacsPConfig& config);

/// The proposed policy.  Reads Cs from the target base station's RTC/NRTC
/// load (paper Fig. 4: the A/R output feeds the counters, which
/// cac::admit's allocation updates).
class FacsPPolicy final : public FuzzyCacBase {
 public:
  /// Builds a private FLC1/FLC2 pair from `config`.  Throws
  /// facsp::ConfigError when a priority weight is below 1.
  explicit FacsPPolicy(const FacsPConfig& config = {});

  /// Shares an already-built pair, which must be make_facs_p_flc1/flc2 of
  /// this same `config` (the policy factories build it once per config).
  /// Decisions are bit-identical to FacsPPolicy(config)'s.
  FacsPPolicy(const FacsPConfig& config,
              std::shared_ptr<const fuzzy::FuzzyController> flc1,
              std::shared_ptr<const fuzzy::FuzzyController> flc2);

  std::string_view name() const noexcept override { return "FACS-P"; }

  const FacsPConfig& config() const noexcept { return config_; }

 protected:
  double flc1_third_input(const AdmissionRequest& req) const override;
  double counter_state(const AdmissionRequest& req,
                       const cellular::BaseStation& bs) const override;

 private:
  FacsPConfig config_;
};

}  // namespace facsp::cac
