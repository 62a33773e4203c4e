// The declarative sweep layer (core/sweep.h): spec validation, grid
// resolution, and — most importantly — the determinism guarantees:
//
//   * the old paper grid expressed as a SweepSpec reproduces the PR 3
//     golden per-cell metrics bit-identically at threads {1, 2, 8};
//   * every registry policy and catalog workload run as a SweepSpec matches
//     a nested serial loop over Experiment::run_single bit for bit at
//     threads {1, 2, 8};
//   * a multi-axis policy x scenario x N sweep serialises byte-for-byte
//     identically for serial and parallel execution.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/paper.h"
#include "core/report.h"
#include "workload/catalog.h"

namespace facsp::core {
namespace {

ScenarioConfig quick_scenario() {
  ScenarioConfig s = paper_scenario(3);
  s.traffic.arrival_window_s = 300.0;
  s.traffic.mean_holding_s = 120.0;
  return s;
}

// --- spec structure --------------------------------------------------------

TEST(SweepSpec, GridSizeIsAxisProductTimesReplications) {
  SweepSpec spec;
  spec.policy_axis({"facs-p", "gc"});
  spec.scenario_axis({"paper-grid", "bursty-onoff"});
  spec.param_axis("traffic.arrival.mean_on_s", {"30", "60", "120"});
  spec.n_axis({20, 40});
  spec.replications = 5;
  EXPECT_EQ(spec.grid_size(), 2u * 2u * 3u * 2u);
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 3u * 2u * 5u);
  EXPECT_NO_THROW(spec.validate());
}

TEST(SweepSpec, ValidateRejectsStructuralErrors) {
  {
    SweepSpec spec;
    spec.replications = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.n_axis({10}).n_axis({20});  // two N axes
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.param_axis("seed", {"1"}).param_axis("seed", {"2"});  // dup name
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.param_axis("seed", {});  // empty axis
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    // A param listed before the scenario axis would be overwritten by the
    // scenario choice — rejected, not silently ignored.
    SweepSpec spec;
    spec.param_axis("traffic.arrival.mean_on_s", {"30"});
    spec.scenario_axis({"paper-grid"});
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.n_axis({0});  // n must be >= 1
    EXPECT_THROW(spec.validate(), ConfigError);
  }
}

TEST(SweepRunner, UnknownPolicyAndParamFailAtConstruction) {
  {
    SweepSpec spec;
    spec.fallback_policy = "no-such-policy";
    EXPECT_THROW(SweepRunner{spec}, ConfigError);
  }
  {
    SweepSpec spec;
    spec.param_axis("no.such.key", {"1"});
    EXPECT_THROW(SweepRunner{spec}, ConfigError);
  }
  {
    SweepSpec spec;
    EXPECT_THROW(spec.policy_axis({"bogus"}),
                 ConfigError);
  }
  {
    EXPECT_THROW(scenario_choices({"no-such-scenario"}), ConfigError);
  }
}

TEST(SweepRunner, EmptySpecIsOneFallbackCell) {
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.replications = 2;
  const SweepRunner runner(spec);
  EXPECT_EQ(runner.grid_size(), 1u);
  EXPECT_EQ(runner.cell_count(), 2u);
  std::vector<CellMetrics> cells;
  const ResultTable table = runner.run(&cells);
  ASSERT_EQ(table.rows.size(), 1u);
  // Absent axes are normalised to explicit single-value ones, so even this
  // degenerate table records which policy and N produced it.
  EXPECT_EQ(table.axes, (std::vector<std::string>{"policy", "n"}));
  EXPECT_EQ(table.rows[0].coords, (std::vector<std::string>{"facs-p", "60"}));
  EXPECT_EQ(table.rows[0].n, 60);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(table.rows[0].acceptance_percent.count(), 2u);
}

TEST(SweepRunner, RowsAreRowMajorWithLastAxisFastest) {
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.replications = 1;
  spec.policy_axis({"gc", "cs"});
  spec.n_axis({5, 7});
  const ResultTable table = SweepRunner(spec).run();
  ASSERT_EQ(table.rows.size(), 4u);
  ASSERT_EQ(table.axes, (std::vector<std::string>{"policy", "n"}));
  EXPECT_EQ(table.rows[0].coords, (std::vector<std::string>{"gc", "5"}));
  EXPECT_EQ(table.rows[1].coords, (std::vector<std::string>{"gc", "7"}));
  EXPECT_EQ(table.rows[2].coords, (std::vector<std::string>{"cs", "5"}));
  EXPECT_EQ(table.rows[3].coords, (std::vector<std::string>{"cs", "7"}));
  EXPECT_EQ(table.rows[3].n, 7);
}

TEST(SweepRunner, ParamAxisActuallyModifiesTheScenario) {
  // Sweeping the seed key: both cells share (policy, n) but must simulate
  // different worlds, so the continuous utilization metric differs.
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.replications = 1;
  spec.param_axis("seed", {"3", "4"});
  spec.n_axis({20});
  const ResultTable table = SweepRunner(spec).run();
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_NE(table.rows[0].utilization_percent.mean(),
            table.rows[1].utilization_percent.mean());
}

// --- determinism guarantees ------------------------------------------------

// The PR 3 golden cells (tests/workload/test_workload_golden.cc, captured
// pre-refactor at full precision): paper scenario, FACS-P, N = 60.
struct GoldenCell {
  std::uint64_t rep;
  double acceptance_percent;
  double dropping_percent;
  double utilization_percent;
  double completion_percent;
};

constexpr GoldenCell kPaperGolden[] = {
    {0, 90, 0, 11.835524683657104, 100},
    {1, 85, 0, 18.062061758336171, 100},
    {2, 50, 0, 28.029436210054261, 100},
};

TEST(SweepRunner, PaperGridSpecReproducesGoldenCellsAtEveryThreadCount) {
  for (const int threads : {1, 2, 8}) {
    SweepSpec spec = SweepSpec::paper_grid(/*replications=*/3);
    spec.threads = threads;
    const SweepRunner runner(spec);
    std::vector<CellMetrics> cells;
    runner.run(&cells);
    ASSERT_EQ(cells.size(), 30u);  // 10 N-values x 3 replications
    // N = 60 is the 6th value of the paper's x grid.
    const std::size_t base = 5u * 3u;
    for (const GoldenCell& g : kPaperGolden) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " rep=" + std::to_string(g.rep));
      const CellMetrics& m = cells[base + g.rep];
      EXPECT_EQ(m.n, 60);
      EXPECT_EQ(m.replication, g.rep);
      EXPECT_EQ(m.acceptance_percent, g.acceptance_percent);
      EXPECT_EQ(m.dropping_percent, g.dropping_percent);
      EXPECT_EQ(m.utilization_percent, g.utilization_percent);
      EXPECT_EQ(m.completion_percent, g.completion_percent);
    }
  }
}

// Bit-identical means exact double equality on every aggregate — no
// tolerance.
void expect_same_stats(const sim::SummaryStats& a, const sim::SummaryStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.ci_half_width(0.95), b.ci_half_width(0.95));
}

/// One N of the serial reference: the aggregates a sweep row must carry.
struct SerialPoint {
  int n = 0;
  sim::SummaryStats acceptance_percent;
  sim::SummaryStats blocking_percent;
  sim::SummaryStats dropping_percent;
  sim::SummaryStats utilization_percent;
  sim::SummaryStats completion_percent;
};

/// The independent oracle: a nested (n, replication) loop over
/// Experiment::run_single, reduced with CellMetrics::from_run and
/// SummaryStats::add — no SweepRunner code involved.
std::vector<SerialPoint> serial_sweep(const Experiment& exp,
                                      const std::vector<int>& n_values,
                                      int replications) {
  std::vector<SerialPoint> points;
  for (const int n : n_values) {
    SerialPoint p;
    p.n = n;
    for (std::uint64_t r = 0; r < static_cast<std::uint64_t>(replications);
         ++r) {
      const CellMetrics m = CellMetrics::from_run(n, r, exp.run_single(n, r));
      p.acceptance_percent.add(m.acceptance_percent);
      p.blocking_percent.add(100.0 - m.acceptance_percent);
      p.dropping_percent.add(m.dropping_percent);
      p.utilization_percent.add(m.utilization_percent);
      p.completion_percent.add(m.completion_percent);
    }
    points.push_back(p);
  }
  return points;
}

void expect_same_rows(const ResultTable& table,
                      const std::vector<SerialPoint>& serial) {
  ASSERT_EQ(table.rows.size(), serial.size());
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    SCOPED_TRACE("n=" + std::to_string(serial[i].n));
    const ResultRow& row = table.rows[i];
    const SerialPoint& point = serial[i];
    EXPECT_EQ(row.n, point.n);
    expect_same_stats(row.acceptance_percent, point.acceptance_percent);
    expect_same_stats(row.blocking_percent, point.blocking_percent);
    expect_same_stats(row.dropping_percent, point.dropping_percent);
    expect_same_stats(row.utilization_percent, point.utilization_percent);
    expect_same_stats(row.completion_percent, point.completion_percent);
  }
}

TEST(SweepRunner, PaperGridSpecMatchesExperimentRunBitIdentically) {
  // A nested serial loop vs the same grid expressed declaratively, at every
  // thread count.  Inputs: the paper grid, every registry policy (facs-p
  // exercises the per-cell inference scratch, fgc the per-cell policy RNG
  // stream) and the catalog workloads, shrunk (shorter window/holding) so
  // the matrix stays ctest-cheap while the workload *shape* (arrival
  // process, spatial map) is untouched.
  struct Input {
    std::string label;
    std::string policy;
    ScenarioConfig scenario;
    std::vector<int> n_values;
    int replications;
  };
  const std::vector<int> small = {5, 12, 20};
  std::vector<Input> inputs = {
      {"paper-grid", "facs-p", paper_scenario(), paper_n_values(), 3}};
  for (const std::string& policy : policy_names())
    inputs.push_back({"quick-paper", policy, quick_scenario(), small, 4});
  for (const char* name :
       {"bursty-onoff", "hotspot-ring2", "flash-crowd", "mix-shift"}) {
    ScenarioConfig scen = workload::catalog_scenario(name);
    scen.traffic.mean_holding_s = 120.0;
    inputs.push_back({name, "facs-p", scen, small, 4});
  }

  for (const Input& in : inputs) {
    SCOPED_TRACE(in.policy + " on " + in.label);
    const std::vector<SerialPoint> serial = serial_sweep(
        Experiment(in.scenario, policy_factory_by_name(in.policy)),
        in.n_values, in.replications);
    SweepSpec spec;
    spec.base = in.scenario;
    spec.policy_axis({in.policy});
    spec.n_axis(in.n_values);
    spec.replications = in.replications;
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      spec.threads = threads;
      expect_same_rows(SweepRunner(spec).run(), serial);
    }
    // Two runs with the same seed agree.
    expect_same_rows(SweepRunner(spec).run(), serial);
  }
}

SweepSpec multi_axis_spec(int threads) {
  // policy x scenario x N, >= 2 values per axis.  Scenario axis mixes a
  // catalog entry with an inline config; both shrunk so the matrix stays
  // ctest-cheap.
  ScenarioConfig bursty = workload::catalog_scenario("bursty-onoff");
  bursty.traffic.mean_holding_s = 120.0;
  SweepSpec spec;
  spec.replications = 2;
  spec.threads = threads;
  spec.policy_axis({"facs-p", "gc"});
  spec.scenario_axis({ScenarioChoice{"quick-paper", quick_scenario()},
                      ScenarioChoice{"quick-bursty", bursty}});
  spec.n_axis({8, 16});
  return spec;
}

TEST(SweepRunner, MultiAxisParallelVsSerialByteForByte) {
  const ResultTable serial = SweepRunner(multi_axis_spec(1)).run();
  const std::string serial_csv = result_csv_string(serial);
  const std::string serial_json = result_json_string(serial);
  ASSERT_EQ(serial.rows.size(), 8u);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ResultTable parallel = SweepRunner(multi_axis_spec(threads)).run();
    EXPECT_EQ(result_csv_string(parallel), serial_csv);
    EXPECT_EQ(result_json_string(parallel), serial_json);
  }
}

TEST(SweepRunner, RawCellsComeBackInRowMajorReplicationOrder) {
  const SweepRunner runner(multi_axis_spec(4));
  std::vector<CellMetrics> cells;
  const ResultTable table = runner.run(&cells);
  ASSERT_EQ(cells.size(), 16u);
  std::size_t i = 0;
  for (const ResultRow& row : table.rows) {
    for (std::uint64_t r = 0; r < 2; ++r, ++i) {
      EXPECT_EQ(cells[i].n, row.n);
      EXPECT_EQ(cells[i].replication, r);
    }
  }
  // The rows were reduced from exactly these cells, including the derived
  // CBP (blocking = 100 - acceptance, computed per replication *before*
  // aggregation).
  sim::SummaryStats acc, blocked;
  for (std::size_t c = 0; c < 2; ++c) {
    acc.add(cells[c].acceptance_percent);
    blocked.add(100.0 - cells[c].acceptance_percent);
  }
  EXPECT_EQ(acc.mean(), table.rows[0].acceptance_percent.mean());
  EXPECT_EQ(blocked.mean(), table.rows[0].blocking_percent.mean());
  EXPECT_EQ(blocked.variance(), table.rows[0].blocking_percent.variance());
}

}  // namespace
}  // namespace facsp::core
