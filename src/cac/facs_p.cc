#include "cac/facs_p.h"

#include <algorithm>

#include "common/error.h"

namespace facsp::cac {

FacsPPolicy::FacsPPolicy(const PriorityWeights& weights)
    : FuzzyCacBase(shared_flc1(), shared_flc2(), kAcceptThreshold,
                   kHandoffScoreBonus),
      weights_(weights) {
  if (weights_.real_time < 1.0 || weights_.non_real_time < 1.0 ||
      weights_.handoff_bonus < 1.0)
    throw ConfigError(
        "priority weights must be >= 1 (they inflate, never deflate, "
        "protected load)");
}

double FacsPPolicy::flc1_third_input(const AdmissionRequest& req) const {
  return static_cast<double>(req.bandwidth);
}

double FacsPPolicy::counter_state(const AdmissionRequest& /*req*/,
                                  const cellular::BaseStation& bs) const {
  // Priority-weighted occupancy, saturated at the Cs universe top so FLC2's
  // "Full" term receives full membership once protected load dominates.
  return std::min(effective_occupancy(bs.load(), weights_),
                  kCounterStateMax);
}

}  // namespace facsp::cac
