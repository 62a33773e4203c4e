#include "cac/facs_p.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace facsp::cac {

std::shared_ptr<const fuzzy::FuzzyController> make_facs_p_flc1(
    const FacsPConfig& config) {
  return make_flc1(config.flc1);
}

std::shared_ptr<const fuzzy::FuzzyController> make_facs_p_flc2(
    const FacsPConfig& config) {
  return make_flc2(config.flc2);
}

FacsPPolicy::FacsPPolicy(const FacsPConfig& config)
    : FacsPPolicy(config, make_facs_p_flc1(config), make_facs_p_flc2(config)) {
}

FacsPPolicy::FacsPPolicy(const FacsPConfig& config,
                         std::shared_ptr<const fuzzy::FuzzyController> flc1,
                         std::shared_ptr<const fuzzy::FuzzyController> flc2)
    : FuzzyCacBase(std::move(flc1), std::move(flc2), config.accept_threshold,
                   config.handoff_score_bonus),
      config_(config) {
  const PriorityWeights& w = config_.weights;
  if (w.real_time < 1.0 || w.non_real_time < 1.0 || w.handoff_bonus < 1.0)
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
  return std::min(effective_occupancy(bs.load(), config_.weights),
                  config_.flc2.cs_max);
}

}  // namespace facsp::cac
