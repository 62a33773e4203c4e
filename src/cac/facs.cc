#include "cac/facs.h"

namespace facsp::cac {

FacsPolicy::FacsPolicy(const FacsConfig& config)
    : FuzzyCacBase(
          make_flc1_distance(config.flc1), make_flc2(config.flc2),
          config.accept_threshold, config.handoff_score_bonus),
      config_(config) {}

double FacsPolicy::flc1_third_input(const AdmissionRequest& req) const {
  return req.distance_m;
}

double FacsPolicy::counter_state(const AdmissionRequest& /*req*/,
                                 const cellular::BaseStation& bs) const {
  return bs.load().used;
}

}  // namespace facsp::cac
