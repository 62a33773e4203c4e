// Integration tests: small-replication versions of the paper's headline
// qualitative results.  The full-resolution versions live in bench/; these
// assert the *orderings* hold so regressions are caught by ctest.
#include <gtest/gtest.h>

#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"

namespace facsp::core {
namespace {

constexpr int kReps = 6;  // enough for orderings, cheap enough for ctest

/// One policy swept over N on one thread.
ResultTable run_sweep(const ScenarioConfig& scen, PolicyFactory factory,
                      const std::string& name, std::vector<int> n_values,
                      int replications) {
  SweepSpec spec;
  spec.base = scen;
  spec.policy_axis({PolicyChoice{name, std::move(factory)}});
  spec.n_axis(std::move(n_values));
  spec.replications = replications;
  spec.threads = 1;
  return SweepRunner(std::move(spec)).run();
}

sim::Series run_policy(const ScenarioConfig& scen, PolicyFactory factory,
                       const std::string& name,
                       std::vector<int> n_values = {10, 25, 50, 75, 100},
                       int replications = kReps) {
  return metric_series(run_sweep(scen, std::move(factory), name,
                                  std::move(n_values), replications),
                       &ResultRow::acceptance_percent, name);
}

TEST(PaperShapes, AcceptanceDeclinesWithOfferedLoad) {
  const auto scen = paper_scenario();
  for (auto& [name, factory] :
       std::vector<std::pair<std::string, PolicyFactory>>{
           {"FACS-P", make_facs_p_factory()},
           {"FACS", make_facs_factory()},
           {"SCC", make_scc_factory()}}) {
    const auto series = run_policy(scen, factory, name);
    EXPECT_TRUE(is_non_increasing(series, 6.0)) << name;
    // Near-full acceptance at the lightest load.  A point threshold at low
    // replication counts is seed-fragile (SCC's true mean sits near 85%),
    // so assert it CI-aware: the interval around the mean must reach 85%,
    // and the mean itself must clear a hard sanity floor.
    const double ci10 = series.ci(0).value_or(0.0);
    EXPECT_GT(series.y_at(10) + ci10, 85.0) << name;
    EXPECT_GT(series.y_at(10), 70.0) << name;
    EXPECT_LT(series.y_at(100), 90.0) << name;  // visible contention
  }
}

TEST(PaperShapes, Fig10FacsPAboveFacsAtLowLoadBelowAtHigh) {
  const auto scen = paper_scenario();
  const auto fp = run_policy(scen, make_facs_p_factory(), "FACS-P");
  const auto f = run_policy(scen, make_facs_factory(), "FACS");
  // Low-N: proposed at least matches the previous system.
  EXPECT_GE(fp.y_at(10), f.y_at(10) - 2.0);
  // High-N: the priority mechanism costs new-call acceptance.
  EXPECT_LT(fp.y_at(100), f.y_at(100));
  EXPECT_LT(fp.y_at(75), f.y_at(75));
}

TEST(PaperShapes, Fig7SccFlatterThanFacsAndAboveAtHighLoad) {
  const auto scen = paper_scenario();
  const auto f = run_policy(scen, make_facs_factory(), "FACS");
  const auto scc = run_policy(scen, make_scc_factory(), "SCC");
  // SCC's over-reservation makes its curve flat: smaller total drop.
  const double drop_f = f.y_at(10) - f.y_at(100);
  const double drop_scc = scc.y_at(10) - scc.y_at(100);
  EXPECT_LT(drop_scc, drop_f);
  // At high load SCC accepts more than FACS (paper: ~70% vs ~63%).
  EXPECT_GT(scc.y_at(100), f.y_at(100));
  // At the lightest load FACS is at least on par with SCC.
  EXPECT_GE(f.y_at(10), scc.y_at(10) - 2.0);
}

TEST(PaperShapes, Fig8HigherSpeedHigherAcceptance) {
  std::vector<double> acceptance;
  for (double v : {4.0, 30.0, 60.0}) {
    const auto scen = paper_scenario_fixed_speed(v);
    acceptance.push_back(
        run_policy(scen, make_facs_p_factory(), "FACS-P", {60}, 10).y_at(60));
  }
  EXPECT_LT(acceptance[0], acceptance[1] + 2.0);
  EXPECT_LT(acceptance[1], acceptance[2] + 2.0);
  EXPECT_GT(acceptance[2], acceptance[0] + 10.0);  // clear separation
}

TEST(PaperShapes, Fig9SmallerAngleHigherAcceptance) {
  std::vector<double> acceptance;
  for (double angle : {0.0, 50.0, 90.0}) {
    const auto scen = paper_scenario_fixed_angle(angle);
    acceptance.push_back(
        run_policy(scen, make_facs_p_factory(), "FACS-P", {50}, 10).y_at(50));
  }
  EXPECT_GT(acceptance[0], acceptance[1] + 5.0);  // 0 deg clearly best
  EXPECT_GE(acceptance[1], acceptance[2] - 3.0);  // 50 >= 90 (within noise)
}

TEST(PaperShapes, FacsPProtectsOngoingCallsBetterThanFacs) {
  // The paper's motivation: FACS-P keeps the QoS of on-going connections.
  // Its handoff dropping must not exceed FACS's.
  const auto scen = paper_scenario();
  const auto fp =
      metric_series(run_sweep(scen, make_facs_p_factory(), "FACS-P", {80}, 10),
                    &ResultRow::dropping_percent, "FACS-P");
  const auto f =
      metric_series(run_sweep(scen, make_facs_factory(), "FACS", {80}, 10),
                    &ResultRow::dropping_percent, "FACS");
  EXPECT_LE(fp.y_at(80), f.y_at(80) + 2.0);
}

}  // namespace
}  // namespace facsp::core
