// Direct coverage of the score -> five-level verdict mapping
// (verdict_from_score, cac/policy.h): the +/-0.15 and +/-0.45 boundaries
// are the midpoints between the A/R term cores, and every policy's
// AdmissionDecision goes through this function — so its edge behaviour is
// pinned here instead of only indirectly through policy suites.  Also the
// shared admission step cac::admit: re-check, allocate, notify.
#include "cac/policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace facsp::cac {
namespace {

TEST(VerdictFromScore, UpperBoundaries) {
  // Accept is an open interval: strictly above +0.45.
  EXPECT_EQ(verdict_from_score(1.0), Verdict::kAccept);
  EXPECT_EQ(verdict_from_score(std::nextafter(0.45, 1.0)), Verdict::kAccept);
  EXPECT_EQ(verdict_from_score(0.45), Verdict::kWeakAccept);
  EXPECT_EQ(verdict_from_score(0.30), Verdict::kWeakAccept);
  EXPECT_EQ(verdict_from_score(std::nextafter(0.15, 1.0)),
            Verdict::kWeakAccept);
  EXPECT_EQ(verdict_from_score(0.15), Verdict::kNeutral);
}

TEST(VerdictFromScore, NeutralBandIsClosed) {
  EXPECT_EQ(verdict_from_score(0.15), Verdict::kNeutral);
  EXPECT_EQ(verdict_from_score(0.0), Verdict::kNeutral);
  EXPECT_EQ(verdict_from_score(-0.15), Verdict::kNeutral);
}

TEST(VerdictFromScore, LowerBoundaries) {
  // WeakReject is the closed band [-0.45, -0.15); Reject strictly below.
  EXPECT_EQ(verdict_from_score(std::nextafter(-0.15, -1.0)),
            Verdict::kWeakReject);
  EXPECT_EQ(verdict_from_score(-0.30), Verdict::kWeakReject);
  EXPECT_EQ(verdict_from_score(-0.45), Verdict::kWeakReject);
  EXPECT_EQ(verdict_from_score(std::nextafter(-0.45, -1.0)),
            Verdict::kReject);
  EXPECT_EQ(verdict_from_score(-1.0), Verdict::kReject);
}

TEST(VerdictFromScore, ExtremesBeyondTheScoreRange) {
  // Callers clamp to [-1, 1], but the mapping itself must stay total.
  EXPECT_EQ(verdict_from_score(2.0), Verdict::kAccept);
  EXPECT_EQ(verdict_from_score(-2.0), Verdict::kReject);
  EXPECT_EQ(verdict_from_score(std::numeric_limits<double>::infinity()),
            Verdict::kAccept);
  EXPECT_EQ(verdict_from_score(-std::numeric_limits<double>::infinity()),
            Verdict::kReject);
  EXPECT_EQ(verdict_from_score(std::numeric_limits<double>::max()),
            Verdict::kAccept);
  EXPECT_EQ(verdict_from_score(-std::numeric_limits<double>::max()),
            Verdict::kReject);
}

TEST(VerdictFromScore, NanFallsThroughToReject) {
  // Every comparison against NaN is false, so the chain lands on kReject —
  // the conservative end.  Pinned so a refactor cannot silently turn NaN
  // into an admission.
  EXPECT_EQ(verdict_from_score(std::numeric_limits<double>::quiet_NaN()),
            Verdict::kReject);
}

TEST(VerdictFromScore, NamesMatchThePaperAbbreviations) {
  EXPECT_EQ(to_string(Verdict::kAccept), "A");
  EXPECT_EQ(to_string(Verdict::kWeakAccept), "WA");
  EXPECT_EQ(to_string(Verdict::kNeutral), "NRNA");
  EXPECT_EQ(to_string(Verdict::kWeakReject), "WR");
  EXPECT_EQ(to_string(Verdict::kReject), "R");
}

// --- cac::admit --------------------------------------------------------------

/// Admits everything and counts the on_admitted notifications.
struct CountingPolicy final : AdmissionPolicy {
  int admitted = 0;
  std::string_view name() const noexcept override { return "counting"; }
  AdmissionDecision decide(const AdmissionRequest&,
                           const cellular::BaseStation&) override {
    return {true, 1.0, Verdict::kAccept};
  }
  void on_admitted(const AdmissionRequest&) override { ++admitted; }
};

cellular::BaseStation make_bs() {
  return cellular::BaseStation(0, cellular::HexCoord{0, 0},
                               cellular::Point{0.0, 0.0}, /*capacity=*/40.0);
}

AdmissionRequest make_req(cellular::ConnectionId id,
                          cellular::ServiceClass service,
                          cellular::RequestKind kind) {
  AdmissionRequest req;
  req.id = id;
  req.service = service;
  req.bandwidth = cellular::service_bandwidth(service);
  req.kind = kind;
  req.now = 5.0;
  return req;
}

TEST(Admit, FittingNewRequestAllocatesAndNotifiesOnce) {
  CountingPolicy policy;
  cellular::BaseStation bs = make_bs();
  const AdmissionRequest req = make_req(1, cellular::ServiceClass::kVideo,
                                        cellular::RequestKind::kNew);
  EXPECT_TRUE(admit(policy, bs, req));
  EXPECT_EQ(policy.admitted, 1);
  EXPECT_TRUE(bs.holds(1));
  EXPECT_EQ(bs.load().used, req.bandwidth);
  EXPECT_EQ(bs.load().rt_used, req.bandwidth);
  EXPECT_EQ(bs.load().rt_handoff_used, 0.0);
}

TEST(Admit, HandoffRequestCountsAsHandoff) {
  CountingPolicy policy;
  cellular::BaseStation bs = make_bs();
  EXPECT_TRUE(admit(policy, bs,
                    make_req(2, cellular::ServiceClass::kText,
                             cellular::RequestKind::kHandoff)));
  EXPECT_EQ(bs.load().nrt_used, 1.0);
  EXPECT_EQ(bs.load().nrt_handoff_used, 1.0);
  EXPECT_EQ(bs.load().rt_handoff_used, 0.0);
}

TEST(Admit, OverCapacityRequestChangesNothing) {
  CountingPolicy policy;
  cellular::BaseStation bs = make_bs();
  for (cellular::ConnectionId id = 1; id <= 4; ++id)
    ASSERT_TRUE(admit(policy, bs,
                      make_req(id, cellular::ServiceClass::kVideo,
                               cellular::RequestKind::kNew)));
  const cellular::LoadState before = bs.load();
  EXPECT_FALSE(admit(policy, bs,
                     make_req(5, cellular::ServiceClass::kText,
                              cellular::RequestKind::kHandoff)));
  EXPECT_EQ(policy.admitted, 4);
  EXPECT_FALSE(bs.holds(5));
  EXPECT_EQ(bs.load().used, before.used);
  EXPECT_EQ(bs.load().rt_used, before.rt_used);
  EXPECT_EQ(bs.load().nrt_used, before.nrt_used);
  EXPECT_EQ(bs.load().rt_handoff_used, before.rt_handoff_used);
  EXPECT_EQ(bs.load().nrt_handoff_used, before.nrt_handoff_used);
}

TEST(Admit, IdAlreadyHeldIsRefusedWithoutThrowing) {
  // The socket path's duplicate in-flight id: a rejection, not a
  // ContractViolation from BaseStation::allocate.
  CountingPolicy policy;
  cellular::BaseStation bs = make_bs();
  const AdmissionRequest req = make_req(7, cellular::ServiceClass::kVoice,
                                        cellular::RequestKind::kNew);
  ASSERT_TRUE(admit(policy, bs, req));
  const cellular::LoadState before = bs.load();
  bool again = true;
  EXPECT_NO_THROW(again = admit(policy, bs, req));
  EXPECT_FALSE(again);
  EXPECT_EQ(policy.admitted, 1);
  EXPECT_EQ(bs.load().used, before.used);
  EXPECT_EQ(bs.load().rt_used, before.rt_used);
}

}  // namespace
}  // namespace facsp::cac
