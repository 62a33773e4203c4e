// Parameterized invariant suite: properties every admission policy must
// satisfy on every workload — capacity safety, metric conservation,
// determinism — swept across (policy, load) combinations.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/paper.h"

namespace facsp::core {
namespace {

struct PolicyCase {
  const char* name;
  PolicyFactory (*make)();
};

const PolicyCase kPolicies[] = {
    {"FACSP", [] { return make_facs_p_factory(); }},
    {"FACS", [] { return make_facs_factory(); }},
    {"SCC", [] { return make_scc_factory(); }},
    {"GC", [] { return make_guard_channel_factory(8.0); }},
    {"FGC", [] { return make_fractional_guard_factory(8.0); }},
    {"CS", [] { return make_complete_sharing_factory(); }},
};

class PolicyInvariants
    : public ::testing::TestWithParam<std::tuple<PolicyCase, int>> {
 protected:
  ScenarioConfig scenario() const {
    ScenarioConfig s = paper_scenario(2024);
    s.traffic.arrival_window_s = 400.0;
    s.traffic.mean_holding_s = 180.0;
    return s;
  }
};

TEST_P(PolicyInvariants, MetricsAreConsistent) {
  const auto& [pc, n] = GetParam();
  Experiment exp(scenario(), pc.make());
  const RunResult r = exp.run_single(n, 0);

  // Every offered call decided; every admitted call resolved.
  EXPECT_EQ(r.metrics.offered_new(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(r.metrics.accepted_new() ,
            r.metrics.completed() + r.metrics.dropped());
  EXPECT_LE(r.metrics.handoff_successes(), r.metrics.handoff_attempts());
  EXPECT_LE(r.metrics.dropped(), r.metrics.handoff_attempts());

  // Percentages in range.
  EXPECT_GE(r.metrics.acceptance_percent(), 0.0);
  EXPECT_LE(r.metrics.acceptance_percent(), 100.0);
  EXPECT_GE(r.metrics.dropping_probability(), 0.0);
  EXPECT_LE(r.metrics.dropping_probability(), 1.0);

  // Physical capacity was never exceeded (time-averaged utilization of a
  // 40-BU cell cannot pass 100%).
  EXPECT_GE(r.center_utilization, 0.0);
  EXPECT_LE(r.center_utilization, 1.0 + 1e-9);
}

TEST_P(PolicyInvariants, DeterministicAcrossRuns) {
  const auto& [pc, n] = GetParam();
  Experiment exp(scenario(), pc.make());
  const RunResult a = exp.run_single(n, 3);
  const RunResult b = exp.run_single(n, 3);
  EXPECT_EQ(a.metrics.accepted_new(), b.metrics.accepted_new());
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped());
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.center_utilization, b.center_utilization);
}

TEST_P(PolicyInvariants, HandoffPressureDoesNotBreakAccounting) {
  const auto& [pc, n] = GetParam();
  ScenarioConfig s = scenario();
  s.traffic.fixed_speed_kmh = 110.0;  // maximum handoff churn
  s.traffic.mean_holding_s = 300.0;
  Experiment exp(s, pc.make());
  const RunResult r = exp.run_single(n, 1);
  EXPECT_EQ(r.metrics.accepted_new(),
            r.metrics.completed() + r.metrics.dropped());
  EXPECT_LE(r.center_utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariants,
    ::testing::Combine(::testing::ValuesIn(kPolicies),
                       ::testing::Values(15, 60)),
    [](const ::testing::TestParamInfo<std::tuple<PolicyCase, int>>& info) {
      return std::string(std::get<0>(info.param).name) + "_N" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace facsp::core
