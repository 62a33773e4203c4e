// Multi-cell engine bench: sharded-simulation throughput (cells/s, events/s)
// with a built-in bit-identity check across engine thread counts, plus the
// batched-vs-scalar admission path (decide_batch against a decide() loop on
// realistic inter-cell handoff batches) with a steady-state allocation
// audit of the batch path — the same counting-operator-new harness as
// bench_workload / tests/fuzzy/test_zero_alloc.cc.  Engine construction is
// also timed on its own (cells*_setup_us_per_cell, sparse*_setup_ms);
// events/s still divides by wall time including construction.
//
// Committed numbers live in BENCH_multicell.json.  Overrides:
//   FACSP_BENCH_REPS   replications per engine timing loop (default 8)
//   FACSP_BENCH_JSON   also write the json line to this path (CI feeds it
//                      to tools/check_bench_regression.py --rate)
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cac/policy.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "core/multicell.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "workload/catalog.h"

using namespace facsp;

namespace {

int reps() {
  if (const char* env = std::getenv("FACSP_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct EngineNumbers {
  double runs_s = 0.0;
  double cells_s = 0.0;
  double events_s = 0.0;   ///< wall time including engine construction
  double setup_s = 0.0;    ///< engine construction alone, mean per run
  std::uint64_t handoffs = 0;
  std::uint64_t accepted = 0;
};

EngineNumbers time_engine(const core::ScenarioConfig& scen, int n, int k_reps) {
  // One factory per config, as every runtime uses it: its FLC1/FLC2 pair is
  // built here once and shared by every cell of every replication.
  const core::PolicyFactory factory = core::make_facs_p_factory();
  std::uint64_t events = 0, handoffs = 0, accepted = 0;
  double setup_s = 0.0;
  const double t0 = now_s();
  for (int r = 0; r < k_reps; ++r) {
    const double c0 = now_s();
    core::MultiCellEngine engine(scen, factory, static_cast<std::uint64_t>(r));
    setup_s += now_s() - c0;
    const core::MultiCellResult result = engine.run(n);
    events += result.aggregate.events;
    handoffs += result.aggregate.metrics.handoff_attempts();
    accepted += result.aggregate.metrics.accepted_new();
  }
  const double secs = now_s() - t0;
  EngineNumbers out;
  out.runs_s = k_reps / secs;
  out.cells_s = k_reps * static_cast<double>(scen.multicell.cells) / secs;
  out.events_s = static_cast<double>(events) / secs;
  out.setup_s = setup_s / k_reps;
  out.handoffs = handoffs;
  out.accepted = accepted;
  return out;
}

/// Realistic inter-cell handoff batch: the request mix the engine's drain
/// loop presents to decide_batch.
std::vector<cac::AdmissionRequest> make_batch(std::size_t count) {
  sim::RandomStream rng(7);
  std::vector<cac::AdmissionRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    cac::AdmissionRequest req;
    req.id = 1 + i;
    const auto svc = static_cast<cellular::ServiceClass>(rng.uniform_int(0, 2));
    req.service = svc;
    req.bandwidth = cellular::service_bandwidth(svc);
    req.kind = cellular::RequestKind::kHandoff;
    req.speed_kmh = rng.uniform(0.0, 120.0);
    req.angle_deg = rng.uniform(-60.0, 60.0);
    req.distance_m = 400.0;
    req.mobile.position = {-400.0, 0.0};
    req.mobile.speed_kmh = req.speed_kmh;
    req.mobile.heading_deg = req.angle_deg;
    req.now = 100.0;
    reqs.push_back(req);
  }
  return reqs;
}

}  // namespace

int main() {
  const int kReps = reps();
  int failures = 0;
  std::string json = "{";

  // --- sharded engine throughput ------------------------------------------
  std::printf("=== Multi-cell engine: handover-storm, N=100/cell ===\n\n");
  std::printf("  %-8s %10s %12s %14s %16s\n", "cells", "runs/s", "cells/s",
              "events/s", "setup us/cell");
  for (const int cells : {1, 7, 19}) {
    core::ScenarioConfig scen =
        workload::catalog_scenario("multicell-handover-storm");
    core::apply_scenario_key(scen, "sim.cells", std::to_string(cells));
    scen.validate();
    const EngineNumbers n = time_engine(scen, 100, kReps);
    const double setup_us_per_cell = n.setup_s * 1e6 / cells;
    std::printf("  %-8d %10.2f %12.2f %14.0f %16.2f\n", cells, n.runs_s,
                n.cells_s, n.events_s, setup_us_per_cell);
    json += (json.size() > 1 ? ", " : "") + std::string("\"cells") +
            std::to_string(cells) + "_runs_s\": " + std::to_string(n.runs_s) +
            ", \"cells" + std::to_string(cells) +
            "_events_s\": " + std::to_string(n.events_s) + ", \"cells" +
            std::to_string(cells) +
            "_setup_us_per_cell\": " + std::to_string(setup_us_per_cell);
  }

  // --- sparse grids: event-driven scheduling ------------------------------
  // City-scale grids with one generating neighbourhood: epoch cost must
  // track ACTIVE shards, not grid size.  events/s here is dominated by how
  // cheaply the engine skips the quiet 99%+ of the grid.
  std::printf("\n=== Sparse grids: workload_cells=1, N=60 ===\n\n");
  std::printf("  %-8s %10s %14s %16s %14s %10s\n", "cells", "runs/s",
              "events/s", "sessions-peak", "drains/epoch", "setup ms");
  for (const int cells : {100, 1000}) {
    core::ScenarioConfig scen =
        workload::catalog_scenario("multicell-handover-storm");
    core::apply_scenario_key(scen, "sim.cells", std::to_string(cells));
    core::apply_scenario_key(scen, "sim.workload_cells", "1");
    scen.validate();
    const int sparse_reps = cells >= 1000 ? std::max(1, kReps / 4) : kReps;
    const EngineNumbers n = time_engine(scen, 60, sparse_reps);

    // One extra observed run for the schedule shape: peak resident sessions
    // and drained shards per barrier (the bulk-synchronous engine would
    // drain `cells` every epoch).
    std::uint64_t sessions_peak = 0, epochs = 0, drains = 0;
    {
      core::MultiCellEngine engine(scen, core::make_facs_p_factory(), 0);
      engine.set_epoch_observer(
          [&](const core::MultiCellEngine::EpochStats& es) {
            ++epochs;
            if (es.active_sessions > sessions_peak)
              sessions_peak = es.active_sessions;
          });
      const std::uint64_t drained0 =
          obs::Registry::instance().counter("engine.shards_drained").value();
      obs::set_metrics_enabled(true);
      engine.run(60);
      obs::set_metrics_enabled(false);
      drains = obs::Registry::instance().counter("engine.shards_drained")
                   .value() -
               drained0;
    }
    const double drains_per_epoch =
        epochs == 0 ? 0.0
                    : static_cast<double>(drains) / static_cast<double>(epochs);
    const double setup_ms = n.setup_s * 1e3;
    std::printf("  %-8d %10.2f %14.0f %16llu %14.1f %10.2f\n", cells,
                n.runs_s, n.events_s,
                static_cast<unsigned long long>(sessions_peak),
                drains_per_epoch, setup_ms);
    json += ", \"sparse" + std::to_string(cells) +
            "_events_s\": " + std::to_string(n.events_s) + ", \"sparse" +
            std::to_string(cells) +
            "_sessions_peak\": " + std::to_string(sessions_peak) +
            ", \"sparse" + std::to_string(cells) +
            "_setup_ms\": " + std::to_string(setup_ms);

    // The engine must not sweep the grid: drained shards stay well under
    // 1/10th of the bulk-synchronous cells-per-epoch cost.
    if (drains * 10 > static_cast<std::uint64_t>(cells) * epochs) {
      std::fprintf(stderr,
                   "FAIL: sparse %d-cell grid drained %llu shards over %llu "
                   "epochs (expected <= cells*epochs/10)\n",
                   cells, static_cast<unsigned long long>(drains),
                   static_cast<unsigned long long>(epochs));
      ++failures;
    }
  }

  // --- observer path: steady-state allocation audit -----------------------
  // The epoch observer must not buy per-epoch allocations: EpochStats and
  // its routes buffer persist across barriers, so an observed run may
  // allocate only the one-time buffer growth (geometric, <= ~64 calls)
  // over an unobserved but otherwise identical run.
  {
    core::ScenarioConfig scen =
        workload::catalog_scenario("multicell-handover-storm");
    const auto run_once = [&scen](bool observed) {
      core::MultiCellEngine engine(scen, core::make_facs_p_factory(), 0);
      std::uint64_t sink = 0;
      if (observed)
        engine.set_epoch_observer(
            [&sink](const core::MultiCellEngine::EpochStats& es) {
              sink += es.departures + es.routes.size();
            });
      const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
      engine.run(100);
      return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    run_once(false);  // warm catalog/config one-time state
    const std::size_t plain = run_once(false);
    const std::size_t observed = run_once(true);
    const std::size_t extra = observed > plain ? observed - plain : 0;
    std::printf(
        "\n  observer-path allocations: %zu observed vs %zu plain "
        "(+%zu, budget 64)\n",
        observed, plain, extra);
    json += ", \"observer_allocs\": " + std::to_string(extra);
    if (extra > 64) {
      std::fprintf(stderr,
                   "FAIL: epoch observer added %zu allocations over an "
                   "unobserved run (expected one-time buffer growth <= 64)\n",
                   extra);
      ++failures;
    }
  }

  // --- bit-identity across engine thread counts ---------------------------
  {
    core::ScenarioConfig scen =
        workload::catalog_scenario("multicell-handover-storm");
    std::vector<core::RunResult> results;
    for (const int threads : {1, 2, 4}) {
      scen.multicell.threads = threads;
      core::MultiCellEngine engine(scen, core::make_facs_p_factory(), 0);
      results.push_back(engine.run(100).aggregate);
    }
    bool identical = true;
    for (std::size_t i = 1; i < results.size(); ++i) {
      identical = identical &&
                  results[i].metrics.accepted_new() ==
                      results[0].metrics.accepted_new() &&
                  results[i].metrics.dropped() == results[0].metrics.dropped() &&
                  results[i].metrics.completed() ==
                      results[0].metrics.completed() &&
                  results[i].metrics.handoff_attempts() ==
                      results[0].metrics.handoff_attempts() &&
                  results[i].events == results[0].events &&
                  results[i].center_utilization ==
                      results[0].center_utilization;
    }
    std::printf("\n  thread bit-identity (1/2/4 workers): %s\n",
                identical ? "OK" : "FAIL");
    if (!identical) ++failures;
  }

  // --- batched vs scalar admission ----------------------------------------
  std::printf("\n=== Admission path: decide() loop vs decide_batch ===\n\n");
  {
    constexpr std::size_t kBatch = 64;
    constexpr int kBatches = 2000;
    const cellular::CellularNetwork network(0, 500.0, 40.0);
    sim::RngFactory rng(42);
    const auto policy = core::make_facs_p_factory()(network, rng);
    const auto reqs = make_batch(kBatch);
    std::vector<cac::AdmissionDecision> out(kBatch);

    // The audit runs with metrics + tracing enabled: the batch path's
    // instrumentation (fuzzy.decide_batch span, fuzzy.decisions counter)
    // must also be allocation-free once warm.  Registration and the
    // thread's trace ring allocate during the warm-up calls below, before
    // the counted region.
    obs::set_metrics_enabled(true);
    obs::Tracer::start();

    // Warm both paths (sizes every internal scratch buffer).
    for (std::size_t i = 0; i < kBatch; ++i)
      out[i] = policy->decide(reqs[i], network.center());
    policy->decide_batch(reqs, network.center(), out);

    double t0 = now_s();
    for (int b = 0; b < kBatches; ++b)
      for (std::size_t i = 0; i < kBatch; ++i)
        out[i] = policy->decide(reqs[i], network.center());
    const double scalar_s = now_s() - t0;

    const std::size_t alloc_before =
        g_alloc_count.load(std::memory_order_relaxed);
    t0 = now_s();
    for (int b = 0; b < kBatches; ++b)
      policy->decide_batch(reqs, network.center(), out);
    const double batch_s = now_s() - t0;
    const double allocs_per_batch =
        static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) -
                            alloc_before) /
        kBatches;
    const std::uint64_t traced = obs::Tracer::recorded_events();
    obs::Tracer::clear();
    obs::set_metrics_enabled(false);

    const double scalar_mdec = kBatch * kBatches / scalar_s / 1e6;
    const double batch_mdec = kBatch * kBatches / batch_s / 1e6;
    std::printf("  scalar decide():   %8.3f Mdecisions/s\n", scalar_mdec);
    std::printf("  decide_batch():    %8.3f Mdecisions/s  (%.2fx)\n",
                batch_mdec, batch_mdec / scalar_mdec);
    std::printf(
        "  allocs per steady-state batch: %.2f  (metrics + tracing on, "
        "%llu spans recorded)\n",
        allocs_per_batch, static_cast<unsigned long long>(traced));
    json += ", \"scalar_mdec_s\": " + std::to_string(scalar_mdec) +
            ", \"batch_mdec_s\": " + std::to_string(batch_mdec) +
            ", \"batch_allocs\": " + std::to_string(allocs_per_batch);

    // The drain loop's admission path must stay allocation-free once warm.
    if (allocs_per_batch != 0.0) {
      std::fprintf(stderr,
                   "FAIL: decide_batch allocated %.2f times per steady-state "
                   "batch (expected 0)\n",
                   allocs_per_batch);
      ++failures;
    }
    // And the audit must not have been vacuous: with tracing enabled every
    // counted decide_batch call records a span.
    if (traced < static_cast<std::uint64_t>(kBatches)) {
      std::fprintf(stderr,
                   "FAIL: expected >= %d traced spans during the audit, "
                   "saw %llu\n",
                   kBatches, static_cast<unsigned long long>(traced));
      ++failures;
    }
  }

  json += "}";
  std::printf("\n  json: %s\n", json.c_str());
  if (const char* path = std::getenv("FACSP_BENCH_JSON")) {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "FAIL: cannot write FACSP_BENCH_JSON=%s\n", path);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
