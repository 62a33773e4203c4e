// The observability layer's central contract: enabling metrics + tracing
// changes NOTHING about simulation results.  Telemetry CSVs and sweep
// ResultTables must be byte-identical with observability on vs off, at
// 1 thread and at 4 — instrumentation only reads clocks and writes to its
// own buffers, never into RNG streams or simulation state.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/report.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/decision_loop.h"
#include "workload/catalog.h"

namespace facsp {
namespace {

class ObsDeterminism : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::clear();
    obs::set_metrics_enabled(false);
  }
  static void enable_observability() {
    obs::set_metrics_enabled(true);
    obs::Tracer::start();
  }
};

std::string server_telemetry(int threads) {
  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario.seed = 23;
  config.duration_s = 2;
  config.requests_per_s = 300;
  config.shards = 2;
  config.threads = threads;
  serve::DecisionServer server(config);
  const serve::ServerResult result = server.run();
  std::ostringstream os;
  serve::write_telemetry_csv(result, os);
  return os.str();
}

std::string sweep_table(int threads) {
  core::SweepSpec spec;
  spec.base = workload::catalog_scenario("paper-grid");
  spec.base.seed = 5;
  spec.policy_axis({"facs-p", "gc"});
  spec.n_axis({20});
  spec.replications = 2;
  spec.threads = threads;
  const core::SweepRunner runner(std::move(spec));
  const core::ResultTable table = runner.run(nullptr);
  std::ostringstream os;
  core::write_result_csv(table, os);
  return os.str();
}

TEST_F(ObsDeterminism, ServerTelemetryBytesUnchangedByObservability) {
  for (const int threads : {1, 4}) {
    obs::Tracer::clear();
    obs::set_metrics_enabled(false);
    const std::string off = server_telemetry(threads);
    enable_observability();
    const std::string on = server_telemetry(threads);
    EXPECT_EQ(off, on) << "threads=" << threads;
    EXPECT_FALSE(off.empty());
    // And observability actually observed something — the runs above must
    // not be vacuous.
    EXPECT_GT(obs::Tracer::recorded_events(), 0u) << "threads=" << threads;
  }
}

TEST_F(ObsDeterminism, SweepTableBytesUnchangedByObservability) {
  for (const int threads : {1, 4}) {
    obs::Tracer::clear();
    obs::set_metrics_enabled(false);
    const std::string off = sweep_table(threads);
    enable_observability();
    const std::string on = sweep_table(threads);
    EXPECT_EQ(off, on) << "threads=" << threads;
    EXPECT_FALSE(off.empty());
    EXPECT_GT(obs::Tracer::recorded_events(), 0u) << "threads=" << threads;
  }
}

TEST_F(ObsDeterminism, SweepMetricsCountCellsExactly) {
  enable_observability();
  obs::Registry::instance().reset_values();
  (void)sweep_table(1);
  // 2 policies x 1 n x 2 replications = 4 cells.
  EXPECT_EQ(obs::Registry::instance().counter("sweep.cells_done").value(),
            4u);
}

}  // namespace
}  // namespace facsp
