// Golden regression: the workload refactor (pluggable arrival processes,
// spatial load maps, mix schedules) must not move a single bit of the
// paper-grid results.  The expected values were captured from the
// pre-refactor tree (PR 2, commit 89217d8) at full precision; every
// comparison is EXPECT_EQ on doubles — no tolerance anywhere.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/paper.h"
#include "workload/catalog.h"

namespace facsp::core {
namespace {

struct GoldenCell {
  int n;
  std::uint64_t rep;
  double acceptance_percent;
  double dropping_percent;
  double utilization_percent;
  double completion_percent;
};

void expect_cells(const ScenarioConfig& scen, PolicyFactory factory,
                  const char* label,
                  const std::vector<GoldenCell>& golden) {
  Experiment exp(scen, std::move(factory));
  for (const GoldenCell& g : golden) {
    const CellMetrics m =
        CellMetrics::from_run(g.n, g.rep, exp.run_single(g.n, g.rep));
    SCOPED_TRACE(std::string(label) + " n=" + std::to_string(g.n) +
                 " rep=" + std::to_string(g.rep));
    EXPECT_EQ(m.acceptance_percent, g.acceptance_percent);
    EXPECT_EQ(m.dropping_percent, g.dropping_percent);
    EXPECT_EQ(m.utilization_percent, g.utilization_percent);
    EXPECT_EQ(m.completion_percent, g.completion_percent);
  }
}

TEST(WorkloadGolden, PaperScenarioFacsPBitIdenticalToPreRefactor) {
  expect_cells(paper_scenario(), make_facs_p_factory(), "FACS-P",
               {{60, 0, 90, 0, 11.835524683657104, 100},
                {60, 1, 85, 0, 18.062061758336171, 100},
                {60, 2, 50, 0, 28.029436210054261, 100}});
}

TEST(WorkloadGolden, CatalogPaperGridMatchesPaperScenario) {
  // The catalog's default entry is the paper scenario, bit for bit.
  expect_cells(workload::catalog_scenario("paper-grid"),
               make_facs_p_factory(), "FACS-P",
               {{60, 0, 90, 0, 11.835524683657104, 100},
                {60, 1, 85, 0, 18.062061758336171, 100},
                {60, 2, 50, 0, 28.029436210054261, 100}});
}

TEST(WorkloadGolden, FractionalGuardPolicyStreamBitIdentical) {
  // FGC draws from the per-replication policy RNG stream: covers the
  // "policy" seeding component.
  expect_cells(paper_scenario(), make_fractional_guard_factory(8.0), "FGC",
               {{40, 0, 100, 0, 13.100131014181638, 100},
                {40, 1, 100, 0, 18.703592896035026, 100}});
}

TEST(WorkloadGolden, UniformSpatialMapBitIdenticalToOldBackgroundTraffic) {
  // spatial.kind = uniform must reproduce the removed
  // background_traffic=true path exactly (same streams, same id ranges).
  ScenarioConfig scen = paper_scenario();
  scen.rings = 2;
  scen.spatial.kind = workload::SpatialKind::kUniform;
  expect_cells(scen, make_facs_p_factory(), "FACS-P bg19",
               {{30, 0, 60, 0, 9.3209679154513214, 100},
                {30, 1, 76.666666666666671, 0, 13.626344294319651, 100}});
}

TEST(WorkloadGolden, FixedSpeedVariantBitIdentical) {
  expect_cells(paper_scenario_fixed_speed(100.0, 7), make_facs_p_factory(),
               "FACS-P 100kmh",
               {{50, 0, 86, 0, 13.732809163559768, 100},
                {50, 1, 92, 0, 12.518609962157157, 100}});
}

}  // namespace
}  // namespace facsp::core
