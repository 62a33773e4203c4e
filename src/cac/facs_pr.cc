#include "cac/facs_pr.h"

#include <utility>

#include "common/error.h"

namespace facsp::cac {

FacsPrPolicy::FacsPrPolicy(const FacsPrConfig& config)
    : FacsPrPolicy(config, make_facs_p_flc1(config.base),
                   make_facs_p_flc2(config.base)) {}

FacsPrPolicy::FacsPrPolicy(const FacsPrConfig& config,
                           std::shared_ptr<const fuzzy::FuzzyController> flc1,
                           std::shared_ptr<const fuzzy::FuzzyController> flc2)
    : config_(config), inner_(config.base, std::move(flc1), std::move(flc2)) {
  if (config_.low_extra < config_.normal_extra ||
      config_.normal_extra < config_.high_extra)
    throw ConfigError(
        "facs-pr: threshold extras must order low >= normal >= high "
        "(higher priority must not face a stricter threshold)");
}

double FacsPrPolicy::threshold_for(cellular::UserPriority p) const noexcept {
  double extra = config_.normal_extra;
  switch (p) {
    case cellular::UserPriority::kLow: extra = config_.low_extra; break;
    case cellular::UserPriority::kNormal: extra = config_.normal_extra; break;
    case cellular::UserPriority::kHigh: extra = config_.high_extra; break;
  }
  return config_.base.accept_threshold + extra;
}

AdmissionDecision FacsPrPolicy::decide(const AdmissionRequest& req,
                                       const cellular::BaseStation& bs) {
  // Run the full FACS-P cascade for the crisp score, then re-resolve the
  // admission against the priority-dependent threshold.  Handoffs keep
  // FACS-P's decision untouched: on-going-connection priority already
  // governs them, and requesting-priority is a *new-call* concept.
  AdmissionDecision d = inner_.decide(req, bs);
  if (req.kind == cellular::RequestKind::kHandoff) return d;
  d.admitted = d.score > threshold_for(req.priority) &&
               bs.can_fit(req.bandwidth);
  return d;
}

void FacsPrPolicy::decide_batch(std::span<const AdmissionRequest> reqs,
                                const cellular::BaseStation& bs,
                                std::span<AdmissionDecision> out) {
  inner_.decide_batch(reqs, bs, out);
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    if (reqs[r].kind == cellular::RequestKind::kHandoff) continue;
    out[r].admitted = out[r].score > threshold_for(reqs[r].priority) &&
                      bs.can_fit(reqs[r].bandwidth);
  }
}

}  // namespace facsp::cac
