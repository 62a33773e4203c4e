// Declarative multi-axis sweeps: experiments over policies x scenarios x
// load, executed deterministically in parallel, collected into a structured
// ResultTable.
//
// A SweepSpec is an ordered list of SweepAxis values whose cross-product
// defines a grid of cells; every cell is further replicated `replications`
// times (the implicit innermost axis).  Axis kinds:
//
//   policy    — which admission policy decides (label + PolicyFactory)
//   scenario  — which world/workload the cell simulates (catalog name or an
//               inline ScenarioConfig)
//   param     — any config_io scenario key swept over raw values, e.g.
//               traffic.arrival.mean_on_s = 30,60,120 (MMPP burstiness) or
//               spatial.hotspot_decay = 0.3,0.6,0.9 (hotspot intensity)
//   n         — the number of requesting connections (the paper's x axis)
//
// Axis order is meaning, not decoration: it fixes the coordinate column
// order, the row order of the ResultTable (row-major, last axis fastest) and
// the resolution order (a param axis modifies the scenario the scenario
// axis picked, so it must be listed after it).
//
// Determinism: cells are seeded via hash_seed(scenario.seed, component,
// replication), so a cell's result depends only on (scenario, policy, n,
// replication) — never on which worker ran it or when.  SweepRunner::run is
// bit-identical for every thread count and to a nested serial loop over
// Experiment::run_single (ctest-enforced in tests/core/test_sweep.cc).
//
// See docs/experiments.md for worked examples.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"
#include "sim/stats.h"

namespace facsp::core {

/// One value of a policy axis: display label (the cell coordinate) +
/// factory.  Factories must honour the PolicyFactory thread-safety contract
/// (experiment.h): they are invoked concurrently from worker threads.
struct PolicyChoice {
  std::string name;
  PolicyFactory factory;
};

/// One value of a scenario axis: display label + full config.  Use
/// scenario_choices() for catalog names, or build inline configs directly.
struct ScenarioChoice {
  std::string name;
  ScenarioConfig config;
};

/// Resolve catalog names into scenario-axis values.  Throws
/// facsp::ConfigError on unknown names.
std::vector<ScenarioChoice> scenario_choices(
    const std::vector<std::string>& catalog_names);

/// Resolve registry names (policy_names()) into policy-axis values.
std::vector<PolicyChoice> policy_choices(
    const std::vector<std::string>& names);

/// One axis of the grid.  Exactly one of the value vectors is populated,
/// matching `kind`.
struct SweepAxis {
  enum class Kind { kPolicy, kScenario, kParam, kN };

  Kind kind = Kind::kParam;
  /// Coordinate column name: "policy", "scenario", "n", or the param key.
  std::string name;

  std::vector<PolicyChoice> policies;     ///< kPolicy
  std::vector<ScenarioChoice> scenarios;  ///< kScenario
  std::vector<std::string> values;        ///< kParam: raw config_io values
  std::vector<int> n_values;              ///< kN

  std::size_t size() const noexcept;
  /// The coordinate string of value `i` (policy/scenario label, raw param
  /// value, or the printed N).
  std::string label(std::size_t i) const;
};

/// Declarative description of a whole experiment campaign.
struct SweepSpec {
  /// Scenario every cell starts from (the paper Sec. 4 defaults).  A
  /// scenario axis replaces it per cell; param axes then modify the result.
  ScenarioConfig base{};
  /// Ordered axes; empty means a single cell (fallback policy/N on `base`).
  std::vector<SweepAxis> axes;

  /// Used when no policy / N axis is present.
  std::string fallback_policy = "facs-p";
  int fallback_n = 60;

  /// The implicit innermost axis: replications per grid cell.
  int replications = 8;
  double ci_level = 0.95;
  /// Worker threads (0 = hardware concurrency).  A pure throughput knob:
  /// the ResultTable is bit-identical for every value.
  int threads = 0;

  // Builder helpers: append one axis each, return *this for chaining.  The
  // initializer_list overloads make the natural spelling
  // `spec.policy_axis({"facs-p", "gc"})` unambiguous (PolicyChoice is an
  // aggregate, so a braced string list would otherwise match both vector
  // overloads).
  SweepSpec& policy_axis(std::initializer_list<const char*> names);
  SweepSpec& policy_axis(const std::vector<std::string>& names);
  SweepSpec& policy_axis(std::vector<PolicyChoice> choices);
  SweepSpec& scenario_axis(std::initializer_list<const char*> catalog_names);
  SweepSpec& scenario_axis(const std::vector<std::string>& catalog_names);
  SweepSpec& scenario_axis(std::vector<ScenarioChoice> choices);
  SweepSpec& param_axis(std::string key, std::vector<std::string> values);
  SweepSpec& n_axis(std::vector<int> values);

  /// The paper's figure sweep as a spec: FACS-P on the Sec. 4 scenario,
  /// N = 10, 20, ..., 100.
  static SweepSpec paper_grid(int replications = 20);

  /// Product of the axis sizes (1 when no axes).
  std::size_t grid_size() const noexcept;
  /// grid_size() * replications: the number of simulation runs.
  std::size_t cell_count() const noexcept;

  /// Structural checks: non-empty axes, unique axis names, at most one
  /// policy/scenario/N axis, no param axis listed before a scenario axis
  /// (the scenario choice would silently overwrite it).  Throws
  /// facsp::ConfigError.  Per-cell scenario validation happens at
  /// resolution time (SweepRunner construction).
  void validate() const;
};

// --- structured results ----------------------------------------------------

/// Aggregates of one grid cell over its replications.  Percentages
/// throughout; blocking (CBP) and dropping (CDP) are the paper's headline
/// metrics, derived per replication and aggregated like the rest.
struct ResultRow {
  /// One coordinate per axis, aligned with ResultTable::axes.
  std::vector<std::string> coords;
  /// The N this cell simulated (from the N axis or the fallback).
  int n = 0;

  sim::SummaryStats acceptance_percent;
  sim::SummaryStats blocking_percent;  ///< CBP: 100 - acceptance
  sim::SummaryStats dropping_percent;  ///< CDP: handoff drops
  sim::SummaryStats utilization_percent;
  sim::SummaryStats completion_percent;
};

/// The structured outcome of a sweep: coordinate columns + one aggregated
/// row per grid cell, in fixed row-major axis order.  Writers live in
/// core/report.h (write_result_csv / write_result_json).
struct ResultTable {
  std::vector<std::string> axes;  ///< coordinate column names, spec order
  int replications = 0;
  double ci_level = 0.95;
  std::vector<ResultRow> rows;
};

/// Executes a SweepSpec.  Construction validates the spec, normalises it
/// (an absent policy / N axis becomes an explicit single-value axis from
/// the fallbacks, so results always record which policy and N produced
/// them — spec() returns the normalised form) and resolves every grid cell
/// (scenario building, param application, policy lookup) up front, so
/// configuration errors surface before any simulation runs.
///
/// run() fans the (grid cell, replication) matrix across a sim::ThreadPool
/// and reduces serially in row-major order — the same SummaryStats::add
/// sequence a nested serial loop would perform, hence bit-identical results
/// for every thread count.
class SweepRunner {
 public:
  explicit SweepRunner(SweepSpec spec);

  /// Run every cell.  When `cells` is non-null it receives the raw
  /// per-replication metrics in (row-major, replication-innermost) order.
  ResultTable run(std::vector<CellMetrics>* cells = nullptr) const;

  const SweepSpec& spec() const noexcept { return spec_; }
  std::size_t grid_size() const noexcept { return rows_.size(); }
  std::size_t cell_count() const noexcept {
    return rows_.size() * static_cast<std::size_t>(spec_.replications);
  }

 private:
  struct ResolvedCell {
    std::vector<std::string> coords;
    int n = 0;
    Experiment experiment;  ///< resolved scenario + policy; run_single is
                            ///< safe to call concurrently
  };

  SweepSpec spec_;
  std::vector<ResolvedCell> rows_;
};

}  // namespace facsp::core
