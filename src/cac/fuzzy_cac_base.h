// Shared skeleton of the two fuzzy admission controllers (FACS, FACS-P).
//
// Both run the same two-stage pipeline:
//   Cv  = FLC1(speed, angle, <third input>)          // mobility benefit
//   A/R = FLC2(Cv, request type, <counter state>)    // admission decision
//   admit  <=>  A/R > accept_threshold  and the call physically fits.
// Subclasses choose the third FLC1 input (service request vs distance) and
// how the counter state is computed (plain vs priority-weighted occupancy).
// The two controllers are immutable and held through shared_ptr<const>, so
// the process's one FLC1/FLC2 pair (cac/facs_flc.h) backs every policy, on
// any thread; each policy owns only its inference scratch.
#pragma once

#include <memory>
#include <span>

#include "cac/policy.h"
#include "fuzzy/controller.h"

namespace facsp::cac {

/// Common implementation of the FLC1 -> FLC2 cascade.
class FuzzyCacBase : public AdmissionPolicy {
 public:
  /// Crisp decision score threshold: admit when score > threshold.
  double accept_threshold() const noexcept { return accept_threshold_; }

  /// The Cv computed by FLC1 for a request (exposed for tests/benches).
  double correction_value(const AdmissionRequest& req) const;

  AdmissionDecision decide(const AdmissionRequest& req,
                           const cellular::BaseStation& bs) final;

  /// Batched form: stages all rows of FLC1, then all rows of FLC2, through
  /// the structure-of-arrays lane kernel instead of cascading per request.
  /// Both controllers are stateless and the counter state does not depend
  /// on the request, so every decision is identical — bit-identical, by the
  /// lane kernel's contract — to decide() on that request.  Allocation-free
  /// at steady state (asserted by the zero-alloc audit).
  void decide_batch(std::span<const AdmissionRequest> reqs,
                    const cellular::BaseStation& bs,
                    std::span<AdmissionDecision> out) final;

  const fuzzy::FuzzyController& flc1() const noexcept { return *flc1_; }
  const fuzzy::FuzzyController& flc2() const noexcept { return *flc2_; }

 protected:
  FuzzyCacBase(std::shared_ptr<const fuzzy::FuzzyController> flc1,
               std::shared_ptr<const fuzzy::FuzzyController> flc2,
               double accept_threshold, double handoff_score_bonus);

  /// Third crisp input of FLC1: Sr for FACS-P, Di for FACS.
  virtual double flc1_third_input(const AdmissionRequest& req) const = 0;

  /// Counter state Cs fed to FLC2 (plain or priority-weighted occupancy,
  /// clamped by FLC2 to its universe).
  virtual double counter_state(const AdmissionRequest& req,
                               const cellular::BaseStation& bs) const = 0;

 private:
  std::shared_ptr<const fuzzy::FuzzyController> flc1_;
  std::shared_ptr<const fuzzy::FuzzyController> flc2_;
  double accept_threshold_;
  double handoff_score_bonus_;
  /// Reusable arena for both controllers; policies are driven from one
  /// simulation thread, so a per-policy scratch is safe.  Mutable because
  /// correction_value() is logically const.
  mutable fuzzy::InferenceScratch scratch_;
};

}  // namespace facsp::cac
