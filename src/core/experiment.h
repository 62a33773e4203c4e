// Experiment harness: one (policy, scenario) pair simulated at a given number
// of requesting connections and replication, plus the canonical policy
// factories and the name-keyed policy registry.  Replicated sweeps over N
// (the x-axis of every figure) and any other axis are SweepSpec/SweepRunner
// runs (core/sweep.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cac/facs.h"
#include "cac/facs_p.h"
#include "cac/facs_pr.h"
#include "cac/policy.h"
#include "cac/scc.h"
#include "cellular/network.h"
#include "core/scenario.h"
#include "core/session.h"
#include "sim/rng.h"

namespace facsp::core {

/// Scalar metrics of one (n, replication) run, in the units the sweep
/// aggregates (percentages).  The single definition of "which numbers a
/// sweep reduces": SweepRunner::run (core/sweep.h) extracts every cell with
/// from_run() before its one reduction.
struct CellMetrics {
  int n = 0;
  std::uint64_t replication = 0;
  double acceptance_percent = 0.0;
  double dropping_percent = 0.0;
  double utilization_percent = 0.0;
  double completion_percent = 0.0;

  static CellMetrics from_run(int n, std::uint64_t replication,
                              const RunResult& run);
};

/// Runs one policy on one scenario.  Policies are compared under common
/// random numbers: replication r uses the same workload for every policy.
class Experiment {
 public:
  Experiment(ScenarioConfig scenario, PolicyFactory factory);

  /// Run a single (N, replication) cell — used by tests, examples and
  /// SweepRunner.  Every piece of per-run state (driver, network,
  /// RNG streams, policy, inference scratch) is built locally, so concurrent
  /// calls from different threads are safe given the PolicyFactory contract
  /// above.
  RunResult run_single(int n, std::uint64_t replication) const;

  const ScenarioConfig& scenario() const noexcept { return scenario_; }

 private:
  ScenarioConfig scenario_;
  PolicyFactory factory_;
};

// --- canonical policy factories ------------------------------------------
// FACS-P and FACS-PR policies share the process's one FLC1/FLC2 pair and
// FACS policies its FLC2 (cac/facs_flc.h), so a call allocates only the
// policy object (and, for FACS, its radius-dependent FLC1-D).

PolicyFactory make_facs_p_factory(cac::PriorityWeights weights = {});
PolicyFactory make_facs_pr_factory();
PolicyFactory make_facs_factory();
PolicyFactory make_scc_factory();
PolicyFactory make_guard_channel_factory(cellular::Bandwidth guard_bu);
PolicyFactory make_fractional_guard_factory(cellular::Bandwidth guard_bu);
PolicyFactory make_complete_sharing_factory();

/// Name-keyed policy registry, shared by the sweep layer and every CLI:
/// facs-p | facs-pr | facs | scc | gc | fgc | cs (guard policies use the
/// paper's 8 BU reservation).  Each name's factory is built once per
/// process, on first lookup, and every lookup returns that same factory.
/// Throws facsp::ConfigError on unknown names, listing the valid ones.
const PolicyFactory& policy_factory_by_name(std::string_view name);
/// The registry's names, in canonical order.
std::vector<std::string> policy_names();

}  // namespace facsp::core
