// Tests of FACS-PR — the paper's future work (priority of requesting
// connections) implemented on top of FACS-P.
#include "cac/facs_pr.h"

#include <gtest/gtest.h>

#include "cellular/basestation.h"

namespace facsp::cac {
namespace {

using cellular::BaseStation;
using cellular::HexCoord;
using cellular::Point;
using cellular::RequestKind;
using cellular::ServiceClass;
using cellular::UserPriority;

AdmissionRequest request(cellular::ConnectionId id, ServiceClass svc,
                         UserPriority prio, double speed = 60.0,
                         double angle = 30.0) {
  AdmissionRequest req;
  req.id = id;
  req.service = svc;
  req.bandwidth = cellular::service_bandwidth(svc);
  req.priority = prio;
  req.speed_kmh = speed;
  req.angle_deg = angle;
  return req;
}

struct PrFixture : ::testing::Test {
  BaseStation bs{0, HexCoord{0, 0}, Point{0, 0}, 40.0};
  FacsPrPolicy pr;

  /// Load the cell with RT traffic until the FACS-P score sits between the
  /// low- and high-priority thresholds (the discrimination window).
  void load_cell(int videos) {
    for (int i = 0; i < videos; ++i) {
      ASSERT_TRUE(admit(pr, bs,
                        request(1000 + i, ServiceClass::kVideo,
                                UserPriority::kNormal, 90.0, 0.0)));
    }
  }
};

TEST_F(PrFixture, ThresholdsOrderedByPriority) {
  EXPECT_GT(pr.threshold_for(UserPriority::kLow),
            pr.threshold_for(UserPriority::kNormal));
  EXPECT_GT(pr.threshold_for(UserPriority::kNormal),
            pr.threshold_for(UserPriority::kHigh));
}

TEST_F(PrFixture, SameScoreDifferentDecisions) {
  // Find an operating point whose score falls between the high and low
  // thresholds, then verify the three priorities split exactly there.
  load_cell(2);
  bool found_discrimination = false;
  for (double angle : {0.0, 20.0, 40.0, 60.0, 80.0}) {
    const auto probe =
        request(1, ServiceClass::kVoice, UserPriority::kNormal, 60.0, angle);
    const double score = pr.decide(probe, bs).score;
    if (score > pr.threshold_for(UserPriority::kHigh) &&
        score <= pr.threshold_for(UserPriority::kLow)) {
      found_discrimination = true;
      auto lo = probe, hi = probe;
      lo.priority = UserPriority::kLow;
      hi.priority = UserPriority::kHigh;
      EXPECT_TRUE(pr.decide(hi, bs).admitted) << "angle=" << angle;
      EXPECT_FALSE(pr.decide(lo, bs).admitted) << "angle=" << angle;
      // The crisp score itself is priority-independent (the FLCs don't
      // see the priority; only the resolution differs).
      EXPECT_DOUBLE_EQ(pr.decide(lo, bs).score, pr.decide(hi, bs).score);
    }
  }
  EXPECT_TRUE(found_discrimination);
}

TEST_F(PrFixture, HighPriorityNeverBypassesPhysicalCapacity) {
  load_cell(4);  // 40/40 BU
  const auto d = pr.decide(
      request(1, ServiceClass::kText, UserPriority::kHigh), bs);
  EXPECT_FALSE(d.admitted);
}

TEST_F(PrFixture, HandoffsUntouchedByRequestingPriority) {
  load_cell(2);
  auto ho = request(7, ServiceClass::kVoice, UserPriority::kLow, 60.0, 20.0);
  ho.kind = RequestKind::kHandoff;
  auto ho_high = ho;
  ho_high.priority = UserPriority::kHigh;
  const auto a = pr.decide(ho, bs);
  const auto b = pr.decide(ho_high, bs);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_DOUBLE_EQ(a.score, b.score);
}

TEST_F(PrFixture, NormalPriorityMatchesPlainFacsP) {
  FacsPPolicy plain;
  load_cell(2);
  for (double angle : {0.0, 45.0, 90.0}) {
    const auto probe =
        request(1, ServiceClass::kVoice, UserPriority::kNormal, 60.0, angle);
    // Mirror the ledger state into the plain policy.
    FacsPPolicy fresh;
    // Scores agree because FACS-PR delegates the cascade; decisions agree
    // at kNormalExtra == 0.
    const auto a = pr.decide(probe, bs);
    EXPECT_EQ(a.admitted, a.score > pr.threshold_for(UserPriority::kNormal) &&
                              bs.can_fit(probe.bandwidth));
  }
}

TEST_F(PrFixture, EmptyCellAcceptsEveryPriority) {
  for (UserPriority p : cellular::kAllPriorities) {
    EXPECT_TRUE(pr.decide(request(1, ServiceClass::kVoice, p, 80.0, 0.0), bs)
                    .admitted)
        << priority_name(p);
  }
}

TEST(FacsPrPriorityNames, RoundTrip) {
  EXPECT_EQ(cellular::priority_name(UserPriority::kLow), "low");
  EXPECT_EQ(cellular::priority_name(UserPriority::kNormal), "normal");
  EXPECT_EQ(cellular::priority_name(UserPriority::kHigh), "high");
}

}  // namespace
}  // namespace facsp::cac
