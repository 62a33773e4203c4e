#include "cac/facs_pr.h"

namespace facsp::cac {

double FacsPrPolicy::threshold_for(cellular::UserPriority p) const noexcept {
  double extra = kNormalExtra;
  switch (p) {
    case cellular::UserPriority::kLow: extra = kLowExtra; break;
    case cellular::UserPriority::kNormal: extra = kNormalExtra; break;
    case cellular::UserPriority::kHigh: extra = kHighExtra; break;
  }
  return FacsPPolicy::kAcceptThreshold + extra;
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
