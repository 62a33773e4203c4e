#include "cac/facs.h"

namespace facsp::cac {

FacsPolicy::FacsPolicy(const cellular::CellularNetwork& network)
    : FuzzyCacBase(make_flc1_distance(network.layout().cell_radius()),
                   shared_flc2(), kAcceptThreshold, kHandoffScoreBonus) {}

double FacsPolicy::flc1_third_input(const AdmissionRequest& req) const {
  return req.distance_m;
}

double FacsPolicy::counter_state(const AdmissionRequest& /*req*/,
                                 const cellular::BaseStation& bs) const {
  return bs.load().used;
}

}  // namespace facsp::cac
