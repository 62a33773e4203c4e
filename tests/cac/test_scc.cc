#include "cac/scc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cellular/network.h"

namespace facsp::cac {
namespace {

using cellular::CellularNetwork;
using cellular::HexCoord;
using cellular::MobileState;
using cellular::RequestKind;
using cellular::ServiceClass;

struct SccFixture : ::testing::Test {
  CellularNetwork net{2, 2000.0, 40.0};

  AdmissionRequest request(cellular::ConnectionId id, ServiceClass svc,
                           double speed = 60.0, double heading = 0.0,
                           RequestKind kind = RequestKind::kNew) {
    AdmissionRequest req;
    req.id = id;
    req.service = svc;
    req.bandwidth = cellular::service_bandwidth(svc);
    req.kind = kind;
    req.speed_kmh = speed;
    req.mobile = MobileState{{0.0, 0.0}, speed, heading};
    return req;
  }
};

TEST_F(SccFixture, EmptyNetworkAcceptsTextAndVoice) {
  SccPolicy scc(net);
  EXPECT_TRUE(scc.decide(request(1, ServiceClass::kText), net.center())
                  .admitted);
  EXPECT_TRUE(scc.decide(request(2, ServiceClass::kVoice), net.center())
                  .admitted);
}

TEST_F(SccFixture, CellProbabilitySumsToAtMostOneAcrossCells) {
  SccPolicy scc(net);
  const MobileState st{{0.0, 0.0}, 60.0, 30.0};
  for (double tau : {30.0, 60.0, 120.0, 180.0}) {
    double total = 0.0;
    for (const auto& cell : cellular::hex_disc({0, 0}, 2))
      total += scc.cell_probability(st, cell, tau);
    EXPECT_LE(total, 1.0 + 1e-9) << "tau=" << tau;
    EXPECT_GE(total, 0.0);
  }
}

TEST_F(SccFixture, StationaryMobileStaysInItsCell) {
  SccPolicy scc(net);
  const MobileState st{{0.0, 0.0}, 0.0, 0.0};
  EXPECT_NEAR(scc.cell_probability(st, {0, 0}, 60.0), 1.0, 1e-9);
  EXPECT_NEAR(scc.cell_probability(st, {1, 0}, 60.0), 0.0, 1e-9);
}

TEST_F(SccFixture, FastMobileShadowMovesToNextCell) {
  SccPolicy scc(net);
  // 120 km/h heading east: after 120 s it has moved ~4 km = past the
  // eastern neighbour's centre (sqrt(3)*2000 ~ 3.46 km).
  const MobileState st{{0.0, 0.0}, 120.0, 0.0};
  const double p_home = scc.cell_probability(st, {0, 0}, 120.0);
  const double p_east = scc.cell_probability(st, {1, 0}, 120.0);
  EXPECT_LT(p_home, 0.3);
  EXPECT_GT(p_east, 0.5);
}

TEST_F(SccFixture, ProjectedDemandAccumulatesActives) {
  SccPolicy scc(net);
  EXPECT_DOUBLE_EQ(scc.projected_demand({0, 0}, 60.0), 0.0);
  auto req = request(1, ServiceClass::kVideo, 0.0);  // stationary video
  scc.on_admitted(req);
  EXPECT_EQ(scc.active_count(), 1u);
  const double d = scc.projected_demand({0, 0}, 60.0);
  // Stationary -> stays; demand = bw, survival-discounted.
  EXPECT_NEAR(d, 10.0 * std::exp(-60.0 / SccPolicy::kMeanHoldingS), 1e-6);
}

TEST_F(SccFixture, ReleasedActivesStopCastingShadows) {
  SccPolicy scc(net);
  auto req = request(1, ServiceClass::kVideo, 0.0);
  scc.on_admitted(req);
  scc.on_released(1);
  EXPECT_EQ(scc.active_count(), 0u);
  EXPECT_DOUBLE_EQ(scc.projected_demand({0, 0}, 60.0), 0.0);
}

TEST_F(SccFixture, MobilityUpdatesMoveTheShadow) {
  SccPolicy scc(net);
  auto req = request(1, ServiceClass::kVideo, 0.0);
  scc.on_admitted(req);
  // Teleport the active into the eastern neighbour.
  const auto east_center = net.layout().center({1, 0});
  scc.on_mobility(1, MobileState{east_center, 0.0, 0.0}, 100.0);
  EXPECT_NEAR(scc.projected_demand({0, 0}, 60.0), 0.0, 1e-9);
  EXPECT_GT(scc.projected_demand({1, 0}, 60.0), 0.0);
}

TEST_F(SccFixture, ReservationRejectsVideoUnderLoad) {
  // With the default 0.22 threshold (8.8 BU future headroom), a video call
  // cannot get reservations once meaningful demand is projected.
  SccPolicy scc(net);
  for (cellular::ConnectionId id = 1; id <= 1; ++id) {
    auto req = request(id, ServiceClass::kVoice, 0.0);
    // Physically allocate too, so decide() sees the BS load.
    cellular::Connection c;
    c.id = id;
    c.service = ServiceClass::kVoice;
    c.bandwidth = 5.0;
    ASSERT_TRUE(net.center().allocate(c, 0.0));
    scc.on_admitted(req);
  }
  const auto d = scc.decide(request(10, ServiceClass::kVideo, 0.0),
                            net.center());
  EXPECT_FALSE(d.admitted);
  // A text call still fits.
  EXPECT_TRUE(scc.decide(request(11, ServiceClass::kText, 0.0), net.center())
                  .admitted);
}

TEST_F(SccFixture, HandoffRequesterNotDoubleCounted) {
  SccPolicy scc(net);
  auto req = request(1, ServiceClass::kVideo, 0.0);
  scc.on_admitted(req);
  // The same connection handing off into its own cell region must not be
  // rejected because of its *own* shadow.
  auto ho = request(1, ServiceClass::kVideo, 0.0, 0.0, RequestKind::kHandoff);
  const auto with_self = scc.decide(ho, net.center());
  scc.on_released(1);
  auto fresh = request(1, ServiceClass::kVideo, 0.0, 0.0,
                       RequestKind::kHandoff);
  const auto without_self = scc.decide(fresh, net.center());
  EXPECT_NEAR(with_self.score, without_self.score, 1e-9);
}

TEST_F(SccFixture, PhysicallyFullCellRejects) {
  SccPolicy scc(net);
  for (cellular::ConnectionId id = 1; id <= 4; ++id) {
    cellular::Connection c;
    c.id = id;
    c.service = ServiceClass::kVideo;
    c.bandwidth = 10.0;
    ASSERT_TRUE(net.center().allocate(c, 0.0));
  }
  const auto d = scc.decide(request(9, ServiceClass::kText), net.center());
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.verdict, Verdict::kReject);
}

}  // namespace
}  // namespace facsp::cac
