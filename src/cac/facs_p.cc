#include "cac/facs_p.h"

#include <algorithm>

namespace facsp::cac {

FacsPPolicy::FacsPPolicy(const FacsPConfig& config)
    : FuzzyCacBase(
          make_flc1(config.flc1, config.inference,
                    fuzzy::Defuzzifier(config.defuzz_method,
                                       kPolicyDefuzzResolution)),
          make_flc2(config.flc2, config.inference,
                    fuzzy::Defuzzifier(config.defuzz_method,
                                       kPolicyDefuzzResolution)),
          config.accept_threshold, config.handoff_score_bonus),
      config_(config) {}

DifferentiatedCounters& FacsPPolicy::counters_mut(
    cellular::BaseStationId bs) const {
  if (last_counters_ != nullptr && last_bs_ == bs) return *last_counters_;
  const auto it = counters_.find(bs);
  DifferentiatedCounters& c =
      it != counters_.end()
          ? it->second
          : counters_.emplace(bs, DifferentiatedCounters(config_.weights))
                .first->second;
  last_counters_ = &c;
  last_bs_ = bs;
  return c;
}

const DifferentiatedCounters& FacsPPolicy::counters(
    cellular::BaseStationId bs) const {
  return counters_mut(bs);
}

double FacsPPolicy::flc1_third_input(const AdmissionRequest& req) const {
  return static_cast<double>(req.bandwidth);
}

double FacsPPolicy::counter_state(const AdmissionRequest& /*req*/,
                                  const cellular::BaseStation& bs) const {
  // Priority-weighted occupancy, saturated at the Cs universe top so FLC2's
  // "Full" term receives full membership once protected load dominates.
  const double eff = counters_mut(bs.id()).effective_occupancy();
  return std::min(eff, config_.flc2.cs_max);
}

void FacsPPolicy::on_admitted(const AdmissionRequest& req,
                              const cellular::BaseStation& bs) {
  counters_mut(bs.id()).add(req.id, req.service, req.bandwidth,
                            req.kind == cellular::RequestKind::kHandoff);
}

void FacsPPolicy::on_released(cellular::ConnectionId id,
                              cellular::ServiceClass /*service*/,
                              const cellular::BaseStation& bs) {
  counters_mut(bs.id()).remove(id);
}

void FacsPPolicy::reset() {
  counters_.clear();
  last_counters_ = nullptr;
}

}  // namespace facsp::cac
