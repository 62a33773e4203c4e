// Behavioural tests of the FACS and FACS-P admission policies.
#include <gtest/gtest.h>

#include "cac/facs.h"
#include "cac/facs_p.h"
#include "cac/facs_pr.h"
#include "cellular/basestation.h"
#include "cellular/network.h"
#include "common/error.h"

namespace facsp::cac {
namespace {

using cellular::BaseStation;
using cellular::Connection;
using cellular::HexCoord;
using cellular::Point;
using cellular::RequestKind;
using cellular::ServiceClass;

AdmissionRequest request(cellular::ConnectionId id, ServiceClass svc,
                         double speed = 60.0, double angle = 0.0,
                         double distance = 500.0,
                         RequestKind kind = RequestKind::kNew) {
  AdmissionRequest req;
  req.id = id;
  req.service = svc;
  req.bandwidth = cellular::service_bandwidth(svc);
  req.kind = kind;
  req.speed_kmh = speed;
  req.angle_deg = angle;
  req.distance_m = distance;
  req.mobile.position = {distance, 0.0};
  req.mobile.speed_kmh = speed;
  req.mobile.heading_deg = 180.0;  // toward a BS at the origin
  return req;
}

struct PolicyFixture : ::testing::Test {
  BaseStation bs{0, HexCoord{0, 0}, Point{0.0, 0.0}, 40.0};
  PriorityWeights weights;
  /// FACS reads its 1000 m cell radius from here.
  const cellular::CellularNetwork network{0, 1000.0, 40.0};

  /// Admit a request into the BS through the shared admission step.
  void admit(AdmissionPolicy& p, const AdmissionRequest& req) {
    ASSERT_TRUE(cac::admit(p, bs, req));
  }
};

// --- shared cascade behaviour -------------------------------------------------

TEST_F(PolicyFixture, EmptyCellAcceptsStraightUser) {
  FacsPPolicy facsp(weights);
  const auto d = facsp.decide(request(1, ServiceClass::kVoice), bs);
  EXPECT_TRUE(d.admitted);
  EXPECT_GT(d.score, 0.3);
  EXPECT_GE(static_cast<int>(d.verdict), static_cast<int>(Verdict::kWeakAccept));
}

TEST_F(PolicyFixture, PhysicallyFullCellNeverAdmits) {
  FacsPPolicy facsp(weights);
  for (cellular::ConnectionId id = 1; id <= 4; ++id)
    admit(facsp, request(id, ServiceClass::kVideo));
  ASSERT_DOUBLE_EQ(bs.free(), 0.0);
  const auto d = facsp.decide(request(9, ServiceClass::kText), bs);
  EXPECT_FALSE(d.admitted);
}

TEST_F(PolicyFixture, CorrectionValueReflectsAngle) {
  FacsPPolicy facsp(weights);
  const double straight = facsp.correction_value(request(1, ServiceClass::kVoice, 90.0, 0.0));
  const double away = facsp.correction_value(request(2, ServiceClass::kVoice, 90.0, 170.0));
  EXPECT_GT(straight, 0.8);
  EXPECT_LT(away, 0.25);
}

TEST_F(PolicyFixture, VerdictMapping) {
  EXPECT_EQ(verdict_from_score(0.9), Verdict::kAccept);
  EXPECT_EQ(verdict_from_score(0.3), Verdict::kWeakAccept);
  EXPECT_EQ(verdict_from_score(0.0), Verdict::kNeutral);
  EXPECT_EQ(verdict_from_score(-0.3), Verdict::kWeakReject);
  EXPECT_EQ(verdict_from_score(-0.9), Verdict::kReject);
  EXPECT_EQ(to_string(Verdict::kNeutral), "NRNA");
}

// --- FACS-P specifics ----------------------------------------------------------

TEST_F(PolicyFixture, FacsPCountersAreTheBaseStationLedger) {
  FacsPPolicy facsp(weights);
  admit(facsp, request(1, ServiceClass::kVideo));
  admit(facsp, request(2, ServiceClass::kText));
  EXPECT_DOUBLE_EQ(bs.load().rt_used, 10.0);
  EXPECT_DOUBLE_EQ(bs.load().nrt_used, 1.0);
  // A FACS-P instance that saw none of those admissions scores a probe
  // exactly as the one that admitted them: Cs comes from the BS alone.
  FacsPPolicy bystander(weights);
  const auto probe = request(10, ServiceClass::kVoice, 60.0, 30.0);
  EXPECT_EQ(bystander.decide(probe, bs).score, facsp.decide(probe, bs).score);
  // Releasing on the BS is all it takes to return to the empty-cell score.
  const double empty_score =
      FacsPPolicy(weights)
          .decide(probe, BaseStation{1, HexCoord{0, 0}, Point{0.0, 0.0}, 40.0})
          .score;
  bs.release(1, 0.0);
  bs.release(2, 0.0);
  EXPECT_EQ(facsp.decide(probe, bs).score, empty_score);
}

TEST(FacsPWeights, EffectiveOccupancyAppliesWeights) {
  PriorityWeights w;
  w.real_time = 2.0;
  w.non_real_time = 1.0;
  w.handoff_bonus = 1.5;
  cellular::LoadState load;
  load.rt_used = 15.0;          // voice 5 (new) + video 10 (handoff)
  load.rt_handoff_used = 10.0;
  load.nrt_used = 1.0;          // text 1 (new)
  // 2.0 * 5 + 2.0 * 1.5 * 10 + 1.0 * 1 = 41.
  EXPECT_DOUBLE_EQ(effective_occupancy(load, w), 41.0);
  load.nrt_handoff_used = 1.0;  // the text call arrived by handoff too
  EXPECT_DOUBLE_EQ(effective_occupancy(load, w), 41.5);
}

TEST_F(PolicyFixture, FacsPEffectiveOccupancyAtLeastPhysicalLoad) {
  FacsPPolicy facsp(weights);  // default weights, all >= 1
  admit(facsp, request(1, ServiceClass::kVoice));
  admit(facsp, request(2, ServiceClass::kText, 60.0, 0.0, 500.0,
                       RequestKind::kHandoff));
  EXPECT_DOUBLE_EQ(bs.load().nrt_handoff_used, 1.0);
  EXPECT_GE(effective_occupancy(bs.load(), weights), bs.used());
}

TEST(FacsPWeights, BelowOneRejectedWhenThePolicyIsBuilt) {
  for (double PriorityWeights::*field :
       {&PriorityWeights::real_time, &PriorityWeights::non_real_time,
        &PriorityWeights::handoff_bonus}) {
    PriorityWeights w;
    w.*field = 0.9;
    EXPECT_THROW(FacsPPolicy{w}, facsp::ConfigError);
  }
  EXPECT_NO_THROW((FacsPPolicy{PriorityWeights{1.0, 1.0, 1.0}}));
}

TEST_F(PolicyFixture, FacsPPriorityMakesItStricterUnderRtLoad) {
  // With real-time on-going load, FACS-P's effective counter state exceeds
  // the physical occupancy, so its score for a new call is lower than
  // FACS's at the same physical load.
  FacsPPolicy facsp(weights);
  FacsPolicy facs(network);
  for (cellular::ConnectionId id = 1; id <= 2; ++id)
    admit(facsp, request(id, ServiceClass::kVideo));
  // Physical load 20 BU, all real-time; FACS-P sees 32 (weight 1.6).
  const auto probe = request(10, ServiceClass::kVoice, 60.0, 0.0, 100.0);
  const double score_p = facsp.decide(probe, bs).score;
  const double score_f = facs.decide(probe, bs).score;
  EXPECT_LT(score_p, score_f);
}

TEST_F(PolicyFixture, FacsPEffectiveCsSaturatesAtUniverse) {
  weights.real_time = 3.0;
  FacsPPolicy facsp(weights);
  for (cellular::ConnectionId id = 1; id <= 3; ++id)
    admit(facsp, request(id, ServiceClass::kVideo));
  // Effective occupancy 90 saturates at kCounterStateMax = 40; decide() must still
  // work and reject big new requests.
  const auto d = facsp.decide(request(9, ServiceClass::kVideo), bs);
  EXPECT_FALSE(d.admitted);
}

TEST_F(PolicyFixture, FacsPHandoffGetsPriorityOverNewCall) {
  FacsPPolicy facsp(weights);
  for (cellular::ConnectionId id = 1; id <= 3; ++id)
    admit(facsp, request(id, ServiceClass::kVideo));
  // Same user, same conditions: handoff continuation scores higher.
  const auto as_new =
      facsp.decide(request(10, ServiceClass::kVoice, 60.0, 60.0), bs);
  const auto as_handoff =
      facsp.decide(request(11, ServiceClass::kVoice, 60.0, 60.0, 500.0,
                           RequestKind::kHandoff),
                   bs);
  EXPECT_GT(as_handoff.score, as_new.score);
}

TEST_F(PolicyFixture, FacsPName) {
  EXPECT_EQ(FacsPPolicy(weights).name(), "FACS-P");
  EXPECT_EQ(FacsPolicy(network).name(), "FACS");
}

// --- FACS specifics -------------------------------------------------------------

TEST_F(PolicyFixture, FacsUsesDistanceNotServiceSize) {
  FacsPolicy facs(network);
  // Same service, same mobility, different distance: near scores higher.
  const double near_score =
      facs.decide(request(1, ServiceClass::kVoice, 60.0, 60.0, 100.0), bs)
          .score;
  const double far_score =
      facs.decide(request(2, ServiceClass::kVoice, 60.0, 60.0, 1100.0), bs)
          .score;
  EXPECT_GE(near_score, far_score);
}

TEST_F(PolicyFixture, FacsCounterStateIsPlainOccupancy) {
  FacsPolicy facs(network);
  FacsPolicy facs_fresh(network);
  // Fill with RT load *without* notifying FACS (it has no counters anyway).
  Connection c;
  c.id = 1;
  c.service = ServiceClass::kVideo;
  c.bandwidth = 10.0;
  ASSERT_TRUE(bs.allocate(c, 0.0));
  // Two FACS instances agree: the decision depends only on the BS load.
  const auto probe = request(5, ServiceClass::kVoice);
  EXPECT_DOUBLE_EQ(facs.decide(probe, bs).score,
                   facs_fresh.decide(probe, bs).score);
}

TEST_F(PolicyFixture, DecisionIsDeterministic) {
  FacsPPolicy facsp(weights);
  const auto probe = request(1, ServiceClass::kVideo, 45.0, 30.0);
  const double s = facsp.decide(probe, bs).score;
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(facsp.decide(probe, bs).score, s);
}

}  // namespace
}  // namespace facsp::cac
