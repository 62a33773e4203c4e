#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/error.h"
#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"

namespace facsp::core {
namespace {

ScenarioConfig quick_scenario() {
  ScenarioConfig s = paper_scenario(3);
  s.traffic.arrival_window_s = 300.0;
  s.traffic.mean_holding_s = 120.0;
  return s;
}

/// CS on the quick scenario swept over `n_values`.
SweepSpec cs_sweep(std::vector<int> n_values, int replications) {
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.policy_axis({PolicyChoice{"CS", make_complete_sharing_factory()}});
  spec.n_axis(std::move(n_values));
  spec.replications = replications;
  return spec;
}

TEST(SweepSpec, PaperGridIs10To100) {
  const SweepSpec spec = SweepSpec::paper_grid(5);
  ASSERT_EQ(spec.axes.size(), 2u);
  const SweepAxis& n_axis = spec.axes[1];
  EXPECT_EQ(n_axis.kind, SweepAxis::Kind::kN);
  ASSERT_EQ(n_axis.n_values.size(), 10u);
  EXPECT_EQ(n_axis.n_values.front(), 10);
  EXPECT_EQ(n_axis.n_values.back(), 100);
  EXPECT_EQ(spec.replications, 5);
}

TEST(Experiment, RunSingleProducesMetrics) {
  Experiment exp(quick_scenario(), make_complete_sharing_factory());
  const RunResult r = exp.run_single(20, 0);
  EXPECT_EQ(r.metrics.offered_new(), 20u);
}

TEST(Experiment, SweepAggregatesAllPoints) {
  const ResultTable res = SweepRunner(cs_sweep({5, 15}, 4)).run();
  ASSERT_EQ(res.rows.size(), 2u);
  EXPECT_EQ(res.rows[0].coords.front(), "CS");
  EXPECT_EQ(res.rows[0].n, 5);
  EXPECT_EQ(res.rows[1].n, 15);
  EXPECT_EQ(res.rows[0].acceptance_percent.count(), 4u);
  // Acceptance is a percentage.
  EXPECT_GE(res.rows[0].acceptance_percent.mean(), 0.0);
  EXPECT_LE(res.rows[0].acceptance_percent.mean(), 100.0);
}

TEST(Experiment, SeriesCarriesCi) {
  const ResultTable table = SweepRunner(cs_sweep({10}, 6)).run();
  const auto series =
      metric_series(table, &ResultRow::acceptance_percent, "CS");
  EXPECT_EQ(series.name(), "CS");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series.x(0), 10.0);
  EXPECT_EQ(series.y(0), table.rows[0].acceptance_percent.mean());
  ASSERT_TRUE(series.ci(0).has_value());
  EXPECT_EQ(*series.ci(0),
            table.rows[0].acceptance_percent.ci_half_width(table.ci_level));
}

TEST(Experiment, CommonRandomNumbersAcrossPolicies) {
  // The same (seed, replication) produces the same workload for different
  // policies: complete sharing and a zero-guard guard channel are
  // decision-identical, so their metrics must match exactly.
  const auto scen = quick_scenario();
  Experiment cs(scen, make_complete_sharing_factory());
  Experiment gc0(scen, make_guard_channel_factory(0.0));
  const RunResult a = cs.run_single(30, 2);
  const RunResult b = gc0.run_single(30, 2);
  EXPECT_EQ(a.metrics.accepted_new(), b.metrics.accepted_new());
  EXPECT_EQ(a.metrics.handoff_attempts(), b.metrics.handoff_attempts());
  EXPECT_EQ(a.events, b.events);
}

TEST(Experiment, AllCanonicalFactoriesProduceWorkingPolicies) {
  const auto scen = quick_scenario();
  const std::vector<std::pair<const char*, PolicyFactory>> factories = {
      {"FACS-P", make_facs_p_factory()},
      {"FACS", make_facs_factory()},
      {"SCC", make_scc_factory()},
      {"GC", make_guard_channel_factory(4.0)},
      {"FGC", make_fractional_guard_factory(4.0)},
      {"CS", make_complete_sharing_factory()},
  };
  for (const auto& [name, factory] : factories) {
    Experiment exp(scen, factory);
    const RunResult r = exp.run_single(15, 0);
    EXPECT_EQ(r.metrics.offered_new(), 15u) << name;
    EXPECT_LE(r.metrics.accepted_new(), 15u) << name;
  }
}

TEST(Experiment, InvalidSweepRejected) {
  EXPECT_THROW(SweepRunner(cs_sweep({}, 4)), ConfigError);
  EXPECT_THROW(SweepRunner(cs_sweep({10}, 0)), ConfigError);
}

TEST(Experiment, DriverAndPolicySeedComponentsNeverAlias) {
  // Regression for the latent aliasing in run_single: the driver's streams
  // are rooted at hash_seed(seed, "driver", r) and the policy's RngFactory
  // at hash_seed(seed, "policy", r) — two distinct components of the same
  // (seed, replication) pair.  No (component, replication) pair may ever
  // yield the seed of the other component at any replication, or a
  // randomised policy's draws could correlate with the workload.
  const std::uint64_t seed = quick_scenario().seed;
  std::set<std::uint64_t> driver_seeds, policy_seeds;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    driver_seeds.insert(sim::hash_seed(seed, "driver", r));
    policy_seeds.insert(sim::hash_seed(seed, "policy", r));
  }
  EXPECT_EQ(driver_seeds.size(), 1000u);
  EXPECT_EQ(policy_seeds.size(), 1000u);
  std::vector<std::uint64_t> overlap;
  std::set_intersection(driver_seeds.begin(), driver_seeds.end(),
                        policy_seeds.begin(), policy_seeds.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
}

TEST(Experiment, PolicyRngConsumptionCannotPerturbWorkload) {
  // A fractional guard channel with an infinitesimal guard decides exactly
  // like complete sharing (p is always 1) but burns one policy-RNG draw per
  // fitting new call; complete sharing draws nothing.  With the driver's
  // streams rooted in their own "driver" component, those extra draws must
  // not perturb the workload or the run in any way.
  const auto scen = quick_scenario();
  Experiment cs(scen, make_complete_sharing_factory());
  Experiment fgc(scen, make_fractional_guard_factory(1e-9));
  for (std::uint64_t r : {0ull, 1ull, 7ull}) {
    const RunResult a = cs.run_single(25, r);
    const RunResult b = fgc.run_single(25, r);
    EXPECT_EQ(a.metrics.offered_new(), b.metrics.offered_new());
    EXPECT_EQ(a.metrics.accepted_new(), b.metrics.accepted_new());
    EXPECT_EQ(a.metrics.handoff_attempts(), b.metrics.handoff_attempts());
    EXPECT_EQ(a.events, b.events);
  }
}

TEST(Experiment, FacsFactoryResolvesCellRadiusFromNetwork) {
  // FACS builds its distance input for the network it is made for: the Di
  // universe ends at 1.2 R.
  const cellular::CellularNetwork network(0, 1234.0, 40.0);
  sim::RngFactory rng(1);
  const auto policy = make_facs_factory()(network, rng);
  const auto& facs = dynamic_cast<const cac::FacsPolicy&>(*policy);
  EXPECT_DOUBLE_EQ(facs.flc1().input(2).universe_hi(), 1.2 * 1234.0);

  auto scen = quick_scenario();
  scen.cell_radius_m = 1234.0;
  Experiment exp(scen, make_facs_factory());
  EXPECT_NO_THROW(exp.run_single(5, 0));
}

}  // namespace
}  // namespace facsp::core
