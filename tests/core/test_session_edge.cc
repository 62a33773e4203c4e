// Edge cases and failure-injection for the session driver.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/paper.h"
#include "core/session.h"
#include "facsp.h"  // umbrella header must compile and suffice on its own

namespace facsp::core {
namespace {

ScenarioConfig base(std::uint64_t seed = 5) {
  ScenarioConfig s = paper_scenario(seed);
  s.traffic.arrival_window_s = 200.0;
  s.traffic.mean_holding_s = 100.0;
  return s;
}

TEST(SessionEdge, SingleCellNetworkHasNoHandoffTargets) {
  // rings = 0: a lone cell.  Mobile users crossing the boundary simply
  // leave coverage; nothing may crash and nothing may be dropped.
  auto scen = base();
  scen.rings = 0;
  scen.traffic.fixed_speed_kmh = 100.0;
  SessionDriver driver(scen, make_complete_sharing_factory(), 0);
  const RunResult r = driver.run(30);
  EXPECT_EQ(r.metrics.handoff_attempts(), 0u);
  EXPECT_EQ(r.metrics.dropped(), 0u);
  EXPECT_EQ(r.metrics.accepted_new(), r.metrics.completed());
}

TEST(SessionEdge, StationaryUsersNeverHandOff) {
  auto scen = base();
  scen.traffic.fixed_speed_kmh = 0.0;
  SessionDriver driver(scen, make_complete_sharing_factory(), 1);
  const RunResult r = driver.run(25);
  EXPECT_EQ(r.metrics.handoff_attempts(), 0u);
  EXPECT_EQ(r.metrics.dropped(), 0u);
}

TEST(SessionEdge, TinyCellProducesManyHandoffs) {
  auto scen = base();
  scen.cell_radius_m = 250.0;  // ~15 s crossing at 60 km/h
  scen.rings = 2;
  scen.traffic.fixed_speed_kmh = 60.0;
  scen.traffic.mean_holding_s = 120.0;
  SessionDriver driver(scen, make_complete_sharing_factory(), 2);
  const RunResult r = driver.run(20);
  EXPECT_GT(r.metrics.handoff_attempts(), 20u);
}

TEST(SessionEdge, HorizonCutsTheRunShort) {
  auto scen = base();
  scen.horizon_s = 50.0;  // well inside the arrival window
  SessionDriver driver(scen, make_complete_sharing_factory(), 3);
  const RunResult r = driver.run(50);
  // Only arrivals before the horizon were processed.
  EXPECT_LT(r.metrics.offered_new(), 50u);
  EXPECT_LE(r.duration_s, 50.0 + 1e-9);
}

TEST(SessionEdge, CapacityOneCellStillConsistent) {
  auto scen = base();
  scen.capacity_bu = 1.0;  // only single text calls fit
  SessionDriver driver(scen, make_complete_sharing_factory(), 4);
  const RunResult r = driver.run(40);
  EXPECT_EQ(r.metrics.accepted_new(),
            r.metrics.completed() + r.metrics.dropped());
  // Voice and video can never be admitted.
  EXPECT_DOUBLE_EQ(
      r.metrics.acceptance_percent(cellular::ServiceClass::kVideo), 0.0);
  EXPECT_DOUBLE_EQ(
      r.metrics.acceptance_percent(cellular::ServiceClass::kVoice), 0.0);
}

TEST(SessionEdge, AllVideoMixSaturatesInFourCalls) {
  auto scen = base();
  scen.enable_mobility = false;
  scen.traffic.mix = cellular::TrafficMix{0.0, 0.0, 1.0};
  scen.traffic.arrival_window_s = 1.0;   // effectively simultaneous
  scen.traffic.mean_holding_s = 1000.0;  // nobody leaves
  SessionDriver driver(scen, make_complete_sharing_factory(), 5);
  const RunResult r = driver.run(10);
  // 40 BU / 10 BU per video = exactly 4 admissions.
  EXPECT_EQ(r.metrics.accepted_new(), 4u);
}

TEST(SessionEdge, VeryShortHoldingTimesChurnCleanly) {
  auto scen = base();
  scen.traffic.mean_holding_s = 1.0;
  SessionDriver driver(scen, make_complete_sharing_factory(), 6);
  const RunResult r = driver.run(60);
  // Practically no overlap: everything admitted and completed.
  EXPECT_GT(r.metrics.acceptance_percent(), 95.0);
  EXPECT_EQ(r.metrics.accepted_new(), r.metrics.completed());
}

TEST(SessionEdge, RejectingPolicyLeavesCellEmpty) {
  // A policy that rejects everything: utilization must be exactly zero
  // and every call blocked.
  struct RejectAll final : cac::AdmissionPolicy {
    std::string_view name() const noexcept override { return "deny"; }
    cac::AdmissionDecision decide(const cac::AdmissionRequest&,
                                  const cellular::BaseStation&) override {
      return {false, -1.0, cac::Verdict::kReject};
    }
  };
  auto scen = base();
  SessionDriver driver(
      scen,
      [](const cellular::CellularNetwork&, sim::RngFactory&) {
        return std::make_unique<RejectAll>();
      },
      7);
  const RunResult r = driver.run(30);
  EXPECT_EQ(r.metrics.accepted_new(), 0u);
  EXPECT_DOUBLE_EQ(r.metrics.acceptance_percent(), 0.0);
  EXPECT_DOUBLE_EQ(r.center_utilization, 0.0);
}

TEST(SessionEdge, ThrowingScenarioIsRejectedUpFront) {
  auto scen = base();
  scen.capacity_bu = -1.0;
  EXPECT_THROW(SessionDriver(scen, make_complete_sharing_factory(), 0),
               ConfigError);
}

TEST(SessionEdge, DurationCoversLastEventNotHorizon) {
  auto scen = base();
  scen.horizon_s = 1e6;  // far beyond any activity
  SessionDriver driver(scen, make_complete_sharing_factory(), 8);
  const RunResult r = driver.run(10);
  // Active period is the arrival window plus holding tails, nowhere near
  // the horizon.
  EXPECT_LT(r.duration_s, 5000.0);
  EXPECT_GT(r.duration_s, 0.0);
}

}  // namespace
}  // namespace facsp::core
