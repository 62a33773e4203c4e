#include "core/experiment.h"

#include "cac/guard_channel.h"
#include "common/error.h"
#include "common/expects.h"
#include "core/multicell.h"

namespace facsp::core {

CellMetrics CellMetrics::from_run(int n, std::uint64_t replication,
                                  const RunResult& run) {
  CellMetrics m;
  m.n = n;
  m.replication = replication;
  m.acceptance_percent = run.metrics.acceptance_percent();
  m.dropping_percent = 100.0 * run.metrics.dropping_probability();
  m.utilization_percent = 100.0 * run.center_utilization;
  m.completion_percent = 100.0 * run.metrics.completion_ratio();
  return m;
}

Experiment::Experiment(ScenarioConfig scenario, PolicyFactory factory)
    : scenario_(scenario), factory_(std::move(factory)) {
  scenario_.validate();
  FACSP_EXPECTS(static_cast<bool>(factory_));
}

RunResult Experiment::run_single(int n, std::uint64_t replication) const {
  // Every run — including the single-world paper run — goes through the
  // multi-cell engine.  With the default multicell.cells = 1 it builds
  // exactly one SessionDriver with the legacy seed roots ("driver" /
  // "policy" under (scenario.seed, replication)) and a no-op inter-cell
  // layer, so the result is bit-identical to the historical direct path —
  // the PR 3 golden-cell tests enforce that equivalence on every run.
  MultiCellEngine engine(scenario_, factory_, replication);
  return engine.run(n).aggregate;
}

PolicyFactory make_facs_p_factory(cac::PriorityWeights weights) {
  return [weights](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::FacsPPolicy>(weights);
  };
}

PolicyFactory make_facs_pr_factory() {
  return [](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::FacsPrPolicy>();
  };
}

PolicyFactory make_facs_factory() {
  return [](const cellular::CellularNetwork& network, sim::RngFactory&) {
    return std::make_unique<cac::FacsPolicy>(network);
  };
}

PolicyFactory make_scc_factory() {
  return [](const cellular::CellularNetwork& network, sim::RngFactory&) {
    return std::make_unique<cac::SccPolicy>(network);
  };
}

PolicyFactory make_guard_channel_factory(cellular::Bandwidth guard_bu) {
  return [guard_bu](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::GuardChannelPolicy>(guard_bu);
  };
}

PolicyFactory make_fractional_guard_factory(cellular::Bandwidth guard_bu) {
  return [guard_bu](const cellular::CellularNetwork&, sim::RngFactory& rng) {
    return std::make_unique<cac::FractionalGuardChannelPolicy>(
        guard_bu, rng.stream("fgc"));
  };
}

PolicyFactory make_complete_sharing_factory() {
  return [](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::CompleteSharingPolicy>();
  };
}

namespace {

// Each registry entry's factory, built on its first lookup and then kept
// for the life of the process (a thread-safe function-local static), so
// every shard, cell and sweep that names a policy shares one factory.  The
// fuzzy controllers are shared one level down, per process
// (cac/facs_flc.h), whichever factory makes the policy.
template <auto Make>
const PolicyFactory& built_once() {
  static const PolicyFactory factory = Make();
  return factory;
}

// The single policy-name table: lookup, name listing and error messages all
// derive from it, so the three can never drift apart.
struct PolicyRegistryEntry {
  const char* name;
  const PolicyFactory& (*factory)();
};

constexpr PolicyRegistryEntry kPolicyRegistry[] = {
    {"facs-p", built_once<[] { return make_facs_p_factory(); }>},
    {"facs-pr", built_once<[] { return make_facs_pr_factory(); }>},
    {"facs", built_once<[] { return make_facs_factory(); }>},
    {"scc", built_once<[] { return make_scc_factory(); }>},
    {"gc", built_once<[] { return make_guard_channel_factory(8.0); }>},
    {"fgc", built_once<[] { return make_fractional_guard_factory(8.0); }>},
    {"cs", built_once<[] { return make_complete_sharing_factory(); }>},
};

}  // namespace

const PolicyFactory& policy_factory_by_name(std::string_view name) {
  for (const PolicyRegistryEntry& entry : kPolicyRegistry)
    if (name == entry.name) return entry.factory();
  std::string valid;
  for (const PolicyRegistryEntry& entry : kPolicyRegistry) {
    if (!valid.empty()) valid += '|';
    valid += entry.name;
  }
  throw ConfigError("unknown policy '" + std::string(name) + "' (" + valid +
                    ")");
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const PolicyRegistryEntry& entry : kPolicyRegistry)
    names.emplace_back(entry.name);
  return names;
}

}  // namespace facsp::core
