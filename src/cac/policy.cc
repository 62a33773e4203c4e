#include "cac/policy.h"

#include "common/expects.h"

namespace facsp::cac {

void AdmissionPolicy::decide_batch(std::span<const AdmissionRequest> reqs,
                                   const cellular::BaseStation& bs,
                                   std::span<AdmissionDecision> out) {
  FACSP_EXPECTS(reqs.size() == out.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) out[i] = decide(reqs[i], bs);
}

bool admit(AdmissionPolicy& policy, cellular::BaseStation& bs,
           const AdmissionRequest& req) {
  if (bs.holds(req.id)) return false;
  cellular::Connection conn;
  conn.id = req.id;
  conn.service = req.service;
  conn.bandwidth = req.bandwidth;
  conn.priority = req.priority;
  conn.origin = req.kind;
  if (!bs.allocate(conn, req.now,
                   /*via_handoff=*/req.kind == cellular::RequestKind::kHandoff))
    return false;
  policy.on_admitted(req);
  return true;
}

Verdict verdict_from_score(double score) noexcept {
  if (score > 0.45) return Verdict::kAccept;
  if (score > 0.15) return Verdict::kWeakAccept;
  if (score >= -0.15) return Verdict::kNeutral;
  if (score >= -0.45) return Verdict::kWeakReject;
  return Verdict::kReject;
}

std::string_view to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kReject: return "R";
    case Verdict::kWeakReject: return "WR";
    case Verdict::kNeutral: return "NRNA";
    case Verdict::kWeakAccept: return "WA";
    case Verdict::kAccept: return "A";
  }
  return "R";
}

}  // namespace facsp::cac
