// The multi-cell sharded engine (core/multicell.h):
//
//   * a 1-cell engine run IS the single-world SessionDriver run, bit for
//     bit — checked against both a direct driver run and the PR 3 golden
//     paper-grid cells;
//   * sharded runs are bit-identical for every engine thread count
//     ({1, 2, 8}, per-cell and aggregate);
//   * handover conservation: every departure routes to a hex neighbour or
//     off the edge, delivered arrivals are admitted or dropped (never
//     lost), per-BS channel counters stay consistent and non-negative,
//     and per-cell sums match the network-wide totals at every drain;
//   * multi-cell scenarios compose with the declarative sweep layer
//     (serial vs parallel ResultTables byte-for-byte, `sim.cells` as a
//     param axis).
#include "core/multicell.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/paper.h"
#include "obs/metrics.h"
#include "core/report.h"
#include "core/sweep.h"
#include "workload/catalog.h"

namespace facsp::core {
namespace {

ScenarioConfig storm_scenario(int engine_threads = 1) {
  ScenarioConfig s = workload::catalog_scenario("multicell-handover-storm");
  s.multicell.threads = engine_threads;
  return s;
}

void expect_same_metrics(const cellular::MetricsCollector& a,
                         const cellular::MetricsCollector& b) {
  EXPECT_EQ(a.offered_new(), b.offered_new());
  EXPECT_EQ(a.accepted_new(), b.accepted_new());
  EXPECT_EQ(a.handoff_attempts(), b.handoff_attempts());
  EXPECT_EQ(a.handoff_successes(), b.handoff_successes());
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.completed(), b.completed());
}

// --- 1-cell degeneration ---------------------------------------------------

TEST(MultiCellEngine, OneCellRunIsTheSessionDriverRunBitForBit) {
  // The paper scenario (rings = 1, mobility on) exercises the departure
  // path too: sessions leaving the disc cross the engine's world edge.
  const ScenarioConfig scen = paper_scenario();
  for (const std::uint64_t rep : {0ull, 1ull, 2ull}) {
    SCOPED_TRACE("rep=" + std::to_string(rep));
    SessionDriver driver(scen, make_facs_p_factory(), rep);
    const RunResult direct = driver.run(60);

    MultiCellEngine engine(scen, make_facs_p_factory(), rep);
    ASSERT_EQ(engine.cell_count(), 1);
    const MultiCellResult multi = engine.run(60);

    expect_same_metrics(direct.metrics, multi.aggregate.metrics);
    EXPECT_EQ(direct.center_utilization, multi.aggregate.center_utilization);
    EXPECT_EQ(direct.duration_s, multi.aggregate.duration_s);
    EXPECT_EQ(direct.events, multi.aggregate.events);
    ASSERT_EQ(multi.cells.size(), 1u);
    EXPECT_EQ(multi.cells[0].handoffs_out, 0u);
    EXPECT_EQ(multi.cells[0].handoffs_in, 0u);
  }
}

TEST(MultiCellEngine, OneCellRunReproducesPaperGridGoldenCells) {
  // The PR 3 golden cells (captured pre-refactor at full precision):
  // paper scenario, FACS-P, N = 60.  The engine must land on them exactly.
  struct Golden {
    std::uint64_t rep;
    double acceptance, dropping, utilization, completion;
  };
  constexpr Golden kGolden[] = {
      {0, 90, 0, 11.835524683657104, 100},
      {1, 85, 0, 18.062061758336171, 100},
      {2, 50, 0, 28.029436210054261, 100},
  };
  const ScenarioConfig scen = paper_scenario();
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("rep=" + std::to_string(g.rep));
    MultiCellEngine engine(scen, make_facs_p_factory(), g.rep);
    const CellMetrics m =
        CellMetrics::from_run(60, g.rep, engine.run(60).aggregate);
    EXPECT_EQ(m.acceptance_percent, g.acceptance);
    EXPECT_EQ(m.dropping_percent, g.dropping);
    EXPECT_EQ(m.utilization_percent, g.utilization);
    EXPECT_EQ(m.completion_percent, g.completion);
  }
}

TEST(MultiCellEngine, ShardPolicySeedRootsArePinned) {
  // Every shard's policy draws from hash_seed(cell seed, "policy",
  // replication).  Only cell 0 is covered by the single-world goldens, so
  // these per-cell counters of a 7-cell storm under the randomised
  // fractional guard pin the other six roots too.
  struct Golden {
    std::uint64_t accepted_new, handoff_attempts, handoff_successes, dropped;
  };
  constexpr Golden kGolden[] = {
      {40, 41, 41, 0}, {40, 25, 25, 0}, {39, 25, 25, 0}, {39, 19, 19, 0},
      {38, 24, 24, 0}, {39, 28, 27, 1}, {40, 24, 24, 0},
  };
  MultiCellEngine engine(storm_scenario(), make_fractional_guard_factory(8.0),
                         1);
  const MultiCellResult r = engine.run(40);
  ASSERT_EQ(r.cells.size(), std::size(kGolden));
  for (std::size_t k = 0; k < r.cells.size(); ++k) {
    SCOPED_TRACE("cell=" + std::to_string(k));
    const cellular::MetricsCollector& m = r.cells[k].run.metrics;
    EXPECT_EQ(m.accepted_new(), kGolden[k].accepted_new);
    EXPECT_EQ(m.handoff_attempts(), kGolden[k].handoff_attempts);
    EXPECT_EQ(m.handoff_successes(), kGolden[k].handoff_successes);
    EXPECT_EQ(m.dropped(), kGolden[k].dropped);
  }
}

// --- sharded determinism ---------------------------------------------------

TEST(MultiCellEngine, ShardedRunsAreBitIdenticalForEveryThreadCount) {
  MultiCellEngine serial(storm_scenario(1), make_facs_p_factory(), 0);
  const MultiCellResult base = serial.run(100);
  ASSERT_EQ(base.cells.size(), 7u);
  // Sanity: real inter-cell traffic flowed.
  std::uint64_t total_in = 0;
  for (const auto& c : base.cells) total_in += c.handoffs_in;
  EXPECT_GT(total_in, 0u);

  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MultiCellEngine engine(storm_scenario(threads), make_facs_p_factory(), 0);
    const MultiCellResult got = engine.run(100);
    ASSERT_EQ(got.cells.size(), base.cells.size());
    for (std::size_t k = 0; k < base.cells.size(); ++k) {
      SCOPED_TRACE("cell=" + std::to_string(k));
      expect_same_metrics(base.cells[k].run.metrics, got.cells[k].run.metrics);
      EXPECT_EQ(base.cells[k].run.center_utilization,
                got.cells[k].run.center_utilization);
      EXPECT_EQ(base.cells[k].run.events, got.cells[k].run.events);
      EXPECT_EQ(base.cells[k].handoffs_out, got.cells[k].handoffs_out);
      EXPECT_EQ(base.cells[k].handoffs_in, got.cells[k].handoffs_in);
      EXPECT_EQ(base.cells[k].left_world, got.cells[k].left_world);
    }
    expect_same_metrics(base.aggregate.metrics, got.aggregate.metrics);
    EXPECT_EQ(base.aggregate.center_utilization,
              got.aggregate.center_utilization);
    EXPECT_EQ(base.aggregate.duration_s, got.aggregate.duration_s);
    EXPECT_EQ(base.aggregate.events, got.aggregate.events);
  }
}

TEST(MultiCellEngine, RunToRunAgreementOnSameSeeds) {
  MultiCellEngine a(storm_scenario(), make_facs_factory(), 3);
  MultiCellEngine b(storm_scenario(), make_facs_factory(), 3);
  const MultiCellResult ra = a.run(60);
  const MultiCellResult rb = b.run(60);
  expect_same_metrics(ra.aggregate.metrics, rb.aggregate.metrics);
  EXPECT_EQ(ra.aggregate.center_utilization, rb.aggregate.center_utilization);
}

// --- routing ---------------------------------------------------------------

TEST(MultiCellEngine, RouteTargetPicksHexNeighboursOrTheEdge) {
  MultiCellEngine engine(storm_scenario(), make_facs_p_factory(), 0);
  ASSERT_EQ(engine.cell_count(), 7);
  // From the centre every heading lands on some ring-1 neighbour.
  for (double heading = -175.0; heading <= 180.0; heading += 5.0) {
    const int dst = engine.route_target(0, heading);
    ASSERT_GE(dst, 1) << "heading " << heading;
    ASSERT_LT(dst, 7) << "heading " << heading;
    EXPECT_EQ(cellular::hex_distance(engine.cell_coord(0),
                                     engine.cell_coord(dst)),
              1);
  }
  // From an edge cell, heading straight away from the centre leaves the
  // 7-cell world; heading back towards it re-enters.
  const cellular::HexLayout unit(1.0);
  for (int cell = 1; cell < 7; ++cell) {
    const double outward = cellular::heading_deg(
        unit.center(cellular::HexCoord{0, 0}),
        unit.center(engine.cell_coord(cell)));
    EXPECT_EQ(engine.route_target(cell, outward), -1) << "cell " << cell;
    const int back = engine.route_target(
        cell, outward > 0.0 ? outward - 180.0 : outward + 180.0);
    EXPECT_EQ(back, 0) << "cell " << cell;
  }
}

// --- conservation properties ----------------------------------------------

TEST(MultiCellEngine, HandoverConservationHoldsAtEveryDrain) {
  MultiCellEngine engine(storm_scenario(), make_facs_p_factory(), 1);
  std::uint64_t epochs = 0, total_departures = 0;
  engine.set_epoch_observer([&](const MultiCellEngine::EpochStats& es) {
    ++epochs;
    total_departures += es.departures;
    // Every departure is accounted for exactly once...
    ASSERT_EQ(es.delivered + es.left_world, es.departures);
    // ...and every delivered arrival is admitted or dropped, never lost.
    ASSERT_EQ(es.admitted + es.dropped, es.delivered);
    ASSERT_EQ(es.routes.size(), es.departures);
    // Each route goes to a hex neighbour of its source (or off the edge).
    for (const auto& [from, to] : es.routes) {
      ASSERT_GE(from, 0);
      ASSERT_LT(from, engine.cell_count());
      if (to >= 0)
        ASSERT_EQ(cellular::hex_distance(engine.cell_coord(from),
                                         engine.cell_coord(to)),
                  1);
    }
    // Channel accounting: per-BS counters consistent and non-negative,
    // and the per-cell sums reproduce the network-wide totals.
    double used_sum = 0.0;
    std::uint64_t session_sum = 0;
    for (int cell = 0; cell < engine.cell_count(); ++cell) {
      session_sum += engine.driver(cell).session_count();
      for (const cellular::BaseStation* bs :
           engine.driver(cell).network().stations()) {
        const cellular::LoadState& load = bs->load();
        ASSERT_GE(load.used, 0.0);
        ASSERT_LE(load.used, load.capacity + 1e-9);
        ASSERT_NEAR(load.used, load.rt_used + load.nrt_used, 1e-9);
        ASSERT_GE(load.rt_used, 0.0);
        ASSERT_GE(load.nrt_used, 0.0);
        used_sum += load.used;
      }
    }
    ASSERT_EQ(session_sum, es.active_sessions);
    ASSERT_NEAR(used_sum, es.used_bu, 1e-9);
  });

  const MultiCellResult result = engine.run(100);
  ASSERT_GT(epochs, 0u);
  ASSERT_GT(total_departures, 0u);

  // Cumulative conservation: in-grid departures equal delivered arrivals...
  std::uint64_t out_sum = 0, in_sum = 0, left_sum = 0;
  for (const auto& c : result.cells) {
    out_sum += c.handoffs_out;
    in_sum += c.handoffs_in;
    left_sum += c.left_world;
  }
  EXPECT_EQ(out_sum, in_sum);
  EXPECT_EQ(out_sum + left_sum, total_departures);
  // ...and every admitted call ended exactly once, somewhere: completions
  // plus drops across all cells equal the admitted new calls.
  EXPECT_EQ(result.aggregate.metrics.completed() +
                result.aggregate.metrics.dropped(),
            result.aggregate.metrics.accepted_new());
  // Inter-cell attempts were recorded in the destination cells' collectors.
  EXPECT_EQ(result.aggregate.metrics.handoff_attempts(), in_sum);
  // Nothing is still holding channels after the drain completed.
  for (int cell = 0; cell < engine.cell_count(); ++cell) {
    EXPECT_EQ(engine.driver(cell).session_count(), 0u);
    for (const cellular::BaseStation* bs :
         engine.driver(cell).network().stations())
      EXPECT_EQ(bs->load().used, 0.0);
  }
}

TEST(MultiCellEngine, EveryCellOffersItsOwnWorkload) {
  MultiCellEngine engine(storm_scenario(), make_facs_p_factory(), 0);
  const MultiCellResult result = engine.run(40);
  ASSERT_EQ(result.cells.size(), 7u);
  for (const auto& c : result.cells)
    EXPECT_EQ(c.run.metrics.offered_new(), 40u);
  EXPECT_EQ(result.aggregate.metrics.offered_new(), 7u * 40u);
  // Shards simulate different worlds: their workloads must not be clones.
  EXPECT_NE(result.cells[0].run.center_utilization,
            result.cells[1].run.center_utilization);
}

// --- sweep-layer composition ----------------------------------------------

SweepSpec multicell_sweep(int threads) {
  SweepSpec spec;
  spec.replications = 2;
  spec.threads = threads;
  spec.policy_axis({"facs-p", "facs"});
  spec.scenario_axis({"multicell-ring1", "multicell-handover-storm"});
  spec.n_axis({20, 40});
  return spec;
}

TEST(MultiCellSweep, SerialVsParallelResultTablesByteForByte) {
  const ResultTable serial = SweepRunner(multicell_sweep(1)).run();
  const std::string csv = result_csv_string(serial);
  const std::string json = result_json_string(serial);
  ASSERT_EQ(serial.rows.size(), 8u);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ResultTable parallel = SweepRunner(multicell_sweep(threads)).run();
    EXPECT_EQ(result_csv_string(parallel), csv);
    EXPECT_EQ(result_json_string(parallel), json);
  }
}

TEST(MultiCellSweep, CellsIsASweepableParamAxis) {
  SweepSpec spec;
  spec.base = workload::catalog_scenario("multicell-ring1");
  spec.replications = 2;
  spec.param_axis("sim.cells", {"1", "7"});
  spec.n_axis({30});
  const SweepRunner runner(spec);
  std::vector<CellMetrics> cells;
  const ResultTable table = runner.run(&cells);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].coords[1], "1");
  EXPECT_EQ(table.rows[1].coords[1], "7");
  // 1 shard vs 7 shards simulate different worlds.
  EXPECT_NE(table.rows[0].utilization_percent.mean(),
            table.rows[1].utilization_percent.mean());
}

TEST(MultiCellConfig, ValidationAndRoundTrip) {
  ScenarioConfig s = paper_scenario();
  s.multicell.cells = 0;
  EXPECT_THROW(s.validate(), ConfigError);
  s.multicell.cells = 7;
  s.multicell.epoch_s = 0.0;
  EXPECT_THROW(s.validate(), ConfigError);
  s.multicell.epoch_s = 5.0;
  s.multicell.entry_fraction = 0.9;  // beyond the hex inradius ratio
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(MultiCellConfig, EventDrivenKeysValidate) {
  ScenarioConfig s = storm_scenario();
  s.multicell.workload_cells = -1;
  EXPECT_THROW(s.validate(), ConfigError);
  s.multicell.workload_cells = 3;
  s.validate();
}

// --- event-driven scheduling ------------------------------------------------

void expect_same_multicell_result(const MultiCellResult& a,
                                  const MultiCellResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t k = 0; k < a.cells.size(); ++k) {
    SCOPED_TRACE("cell=" + std::to_string(k));
    expect_same_metrics(a.cells[k].run.metrics, b.cells[k].run.metrics);
    EXPECT_EQ(a.cells[k].run.center_utilization,
              b.cells[k].run.center_utilization);
    EXPECT_EQ(a.cells[k].run.duration_s, b.cells[k].run.duration_s);
    EXPECT_EQ(a.cells[k].run.events, b.cells[k].run.events);
    EXPECT_EQ(a.cells[k].handoffs_out, b.cells[k].handoffs_out);
    EXPECT_EQ(a.cells[k].handoffs_in, b.cells[k].handoffs_in);
    EXPECT_EQ(a.cells[k].left_world, b.cells[k].left_world);
  }
  expect_same_metrics(a.aggregate.metrics, b.aggregate.metrics);
  EXPECT_EQ(a.aggregate.center_utilization, b.aggregate.center_utilization);
  EXPECT_EQ(a.aggregate.duration_s, b.aggregate.duration_s);
  EXPECT_EQ(a.aggregate.events, b.aggregate.events);
}

TEST(MultiCellEngine, EventSkippingIsBitIdenticalToFullDrains) {
  // The pre-PR-10 bulk-synchronous schedule (every shard drained every
  // epoch, no fast-forward) and the event-driven schedule must produce
  // byte-identical results — per cell and aggregate, at every thread count.
  for (const ScenarioConfig& scen :
       {paper_scenario(), storm_scenario()}) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("cells=" + std::to_string(scen.multicell.cells) +
                   " threads=" + std::to_string(threads));
      ScenarioConfig s = scen;
      s.multicell.threads = threads;

      MultiCellEngine full(s, make_facs_p_factory(), 0);
      full.set_force_full_drains(true);
      const MultiCellResult base = full.run(60);

      MultiCellEngine skipping(s, make_facs_p_factory(), 0);
      const MultiCellResult got = skipping.run(60);
      expect_same_multicell_result(base, got);
    }
  }
}

TEST(MultiCellEngine, WorkloadCellsRestrictsFreshTraffic) {
  ScenarioConfig s = storm_scenario();
  s.multicell.workload_cells = 1;
  MultiCellEngine engine(s, make_facs_p_factory(), 0);
  const MultiCellResult result = engine.run(40);
  ASSERT_EQ(result.cells.size(), 7u);
  EXPECT_EQ(result.cells[0].run.metrics.offered_new(), 40u);
  for (std::size_t k = 1; k < result.cells.size(); ++k)
    EXPECT_EQ(result.cells[k].run.metrics.offered_new(), 0u);
  EXPECT_EQ(result.aggregate.metrics.offered_new(), 40u);
  // The quiet neighbours still light up on inbound handovers.
  std::uint64_t in_sum = 0;
  for (std::size_t k = 1; k < result.cells.size(); ++k)
    in_sum += result.cells[k].handoffs_in;
  EXPECT_GT(in_sum, 0u);
}

TEST(MultiCellEngine, SparseGridDrainsProportionalToActivity) {
  // 1000 cells, one generating: the engine must drain the active
  // neighbourhood only, not sweep the grid — >= 10x fewer shard drains
  // than cells x epochs (the bulk-synchronous cost), per the
  // engine.shards_drained counter.
  ScenarioConfig s = storm_scenario();
  s.multicell.cells = 1000;
  s.multicell.workload_cells = 1;

  obs::Registry& reg = obs::Registry::instance();
  const std::uint64_t drained0 = reg.counter("engine.shards_drained").value();
  const std::uint64_t epochs0 = reg.counter("engine.epochs").value();
  const std::uint64_t skipped0 = reg.counter("engine.epochs_skipped").value();

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  MultiCellEngine engine(s, make_facs_p_factory(), 0);
  const MultiCellResult result = engine.run(60);
  obs::set_metrics_enabled(was_enabled);

  const std::uint64_t drained =
      reg.counter("engine.shards_drained").value() - drained0;
  const std::uint64_t epochs = reg.counter("engine.epochs").value() - epochs0;
  const std::uint64_t skipped =
      reg.counter("engine.epochs_skipped").value() - skipped0;

  ASSERT_GT(epochs, 0u);
  ASSERT_GT(drained, 0u);
  EXPECT_GT(result.aggregate.metrics.offered_new(), 0u);
  // The bulk-synchronous engine would have drained every cell in every
  // epoch of the same wall-clock window (drained + skipped epochs).
  const std::uint64_t bulk_drains = 1000u * (epochs + skipped);
  EXPECT_LE(drained * 10, bulk_drains)
      << "drained " << drained << " shards over " << epochs << " epochs (+"
      << skipped << " skipped)";
}

}  // namespace
}  // namespace facsp::core
