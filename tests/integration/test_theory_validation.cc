// Cross-validation of the simulator against teletraffic theory: with
// mobility off and a long arrival window, the complete-sharing cell is a
// multi-rate Erlang loss system and must match the Kaufman-Roberts
// solution.  This exercises the entire pipeline (traffic generation,
// event engine, bandwidth ledger, metrics) against an independent oracle.
#include <gtest/gtest.h>

#include "cellular/erlang.h"
#include "core/experiment.h"
#include "core/paper.h"

namespace facsp::core {
namespace {

struct TheoryCase {
  int n_requests;        ///< offered calls over the window
  double window_s;       ///< long => quasi-stationary
  double holding_s;
  const char* label;
};

class SimVsKaufmanRoberts : public ::testing::TestWithParam<TheoryCase> {};

TEST_P(SimVsKaufmanRoberts, AcceptanceMatchesTheory) {
  const TheoryCase& tc = GetParam();

  ScenarioConfig scen = paper_scenario(101);
  scen.enable_mobility = false;  // pure loss system
  scen.traffic.arrival_window_s = tc.window_s;
  scen.traffic.mean_holding_s = tc.holding_s;

  // Simulated acceptance, averaged over replications.
  Experiment exp(scen, make_complete_sharing_factory());
  sim::SummaryStats acceptance;
  sim::SummaryStats per_class[3];
  const int reps = 24;
  for (int rep = 0; rep < reps; ++rep) {
    const auto run = exp.run_single(tc.n_requests, rep);
    acceptance.add(run.metrics.acceptance_percent());
    per_class[0].add(
        run.metrics.acceptance_percent(cellular::ServiceClass::kText));
    per_class[1].add(
        run.metrics.acceptance_percent(cellular::ServiceClass::kVoice));
    per_class[2].add(
        run.metrics.acceptance_percent(cellular::ServiceClass::kVideo));
  }

  // Kaufman-Roberts oracle at the same offered rate.
  const double lambda = tc.n_requests / tc.window_s;
  const auto kr = cellular::KaufmanRoberts::for_paper_mix(
      40, scen.traffic.mix, lambda, tc.holding_s);

  // The finite window starts empty (cold start inflates acceptance by
  // ~holding/window); allow that plus Monte-Carlo noise.
  const double tolerance =
      3.0 + 100.0 * tc.holding_s / tc.window_s + acceptance.ci_half_width();
  EXPECT_NEAR(acceptance.mean(), kr.acceptance_percent(), tolerance)
      << tc.label << ": sim=" << acceptance.mean()
      << " theory=" << kr.acceptance_percent();

  // Ordering of per-class blocking must match theory exactly:
  // video blocks most, text least.
  EXPECT_GE(per_class[0].mean(), per_class[1].mean() - 2.0) << tc.label;
  EXPECT_GE(per_class[1].mean(), per_class[2].mean() - 2.0) << tc.label;
  EXPECT_LT(kr.blocking(0), kr.blocking(2));
}

INSTANTIATE_TEST_SUITE_P(
    LoadLevels, SimVsKaufmanRoberts,
    ::testing::Values(
        TheoryCase{60, 6000.0, 300.0, "light (9.7 BU offered)"},
        TheoryCase{160, 6000.0, 300.0, "moderate (~26 BU offered)"},
        TheoryCase{280, 6000.0, 300.0, "heavy (~45 BU offered)"}),
    [](const ::testing::TestParamInfo<TheoryCase>& info) {
      return "N" + std::to_string(info.param.n_requests);
    });

TEST(SimVsErlangB, SingleClassMatchesErlangB) {
  // All-text traffic on a 40-BU cell == M/M/40/40 -> Erlang-B.
  ScenarioConfig scen = paper_scenario(77);
  scen.enable_mobility = false;
  scen.traffic.mix = cellular::TrafficMix{1.0, 0.0, 0.0};
  scen.traffic.arrival_window_s = 4000.0;
  scen.traffic.mean_holding_s = 300.0;

  const int n = 700;  // offered load = 700/4000 * 300 = 52.5 erlangs
  Experiment exp(scen, make_complete_sharing_factory());
  sim::SummaryStats acceptance;
  for (int rep = 0; rep < 16; ++rep)
    acceptance.add(exp.run_single(n, rep).metrics.acceptance_percent());

  const double offered = n / 4000.0 * 300.0;
  const double theory = 100.0 * (1.0 - cellular::erlang_b(offered, 40));
  EXPECT_NEAR(acceptance.mean(), theory,
              3.0 + 100.0 * 300.0 / 4000.0 + acceptance.ci_half_width());
}

}  // namespace
}  // namespace facsp::core
