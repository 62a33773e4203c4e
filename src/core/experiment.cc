#include "core/experiment.h"

#include "cac/facs.h"
#include "cac/facs_p.h"
#include "cac/guard_channel.h"
#include "cac/scc.h"
#include "common/error.h"
#include "common/expects.h"
#include "core/multicell.h"
#include "core/sweep.h"

namespace facsp::core {

SweepConfig SweepConfig::paper_grid(int replications) {
  SweepConfig c;
  for (int n = 10; n <= 100; n += 10) c.n_values.push_back(n);
  c.replications = replications;
  return c;
}

namespace {

sim::Series stats_series(const std::string& name,
                         const std::vector<SweepPoint>& points,
                         const sim::SummaryStats SweepPoint::* member,
                         double ci_level) {
  sim::Series s(name);
  for (const auto& p : points) {
    const sim::SummaryStats& st = p.*member;
    s.add(p.n, st.mean(), st.ci_half_width(ci_level));
  }
  return s;
}

}  // namespace

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

sim::Series SweepResult::acceptance_series(double ci_level) const {
  return stats_series(policy_name, points, &SweepPoint::acceptance_percent,
                      ci_level);
}

sim::Series SweepResult::dropping_series(double ci_level) const {
  return stats_series(policy_name, points, &SweepPoint::dropping_percent,
                      ci_level);
}

sim::Series SweepResult::completion_series(double ci_level) const {
  return stats_series(policy_name, points, &SweepPoint::completion_percent,
                      ci_level);
}

Experiment::Experiment(ScenarioConfig scenario, PolicyFactory factory,
                       std::string policy_label)
    : scenario_(scenario),
      factory_(std::move(factory)),
      label_(std::move(policy_label)) {
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

SweepResult Experiment::run(const SweepConfig& sweep) const {
  FACSP_EXPECTS(!sweep.n_values.empty());
  FACSP_EXPECTS(sweep.replications >= 1);
  // The legacy (N, replication) grid as a one-policy SweepSpec.  A
  // one-thread SweepRunner executes inline and reduces in the same
  // (n, replication) order as the old nested loop, so results are
  // bit-identical to the historical serial path.
  SweepSpec spec;
  spec.base = scenario_;
  spec.policy_axis({PolicyChoice{label_, factory_}});
  spec.n_axis(sweep.n_values);
  spec.replications = sweep.replications;
  spec.ci_level = sweep.ci_level;
  spec.threads = 1;
  const ResultTable table = SweepRunner(std::move(spec)).run();

  SweepResult out;
  out.policy_name = label_;
  out.points.reserve(table.rows.size());
  for (const ResultRow& row : table.rows)
    out.points.push_back({row.n, row.acceptance_percent, row.dropping_percent,
                          row.utilization_percent, row.completion_percent});
  return out;
}

PolicyFactory make_facs_p_factory(cac::FacsPConfig config) {
  return [config](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::FacsPPolicy>(config);
  };
}

PolicyFactory make_facs_pr_factory(cac::FacsPrConfig config) {
  return [config](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::FacsPrPolicy>(config);
  };
}

PolicyFactory make_facs_factory(cac::FacsConfig config) {
  return [config](const cellular::CellularNetwork& network,
                  sim::RngFactory&) {
    cac::FacsConfig cfg = config;
    if (cfg.flc1.cell_radius_m <= 0.0)
      cfg.flc1.cell_radius_m = network.layout().cell_radius();
    return std::make_unique<cac::FacsPolicy>(cfg);
  };
}

PolicyFactory make_scc_factory(cac::SccConfig config) {
  return [config](const cellular::CellularNetwork& network,
                  sim::RngFactory&) {
    return std::make_unique<cac::SccPolicy>(network, config);
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

// The single policy-name table: lookup, name listing and error messages all
// derive from it, so the three can never drift apart.
struct PolicyRegistryEntry {
  const char* name;
  PolicyFactory (*make)();
};

constexpr PolicyRegistryEntry kPolicyRegistry[] = {
    {"facs-p", [] { return make_facs_p_factory(); }},
    {"facs-pr", [] { return make_facs_pr_factory(); }},
    {"facs", [] { return make_facs_factory(); }},
    {"scc", [] { return make_scc_factory(); }},
    {"gc", [] { return make_guard_channel_factory(8.0); }},
    {"fgc", [] { return make_fractional_guard_factory(8.0); }},
    {"cs", [] { return make_complete_sharing_factory(); }},
};

}  // namespace

PolicyFactory policy_factory_by_name(std::string_view name) {
  for (const PolicyRegistryEntry& entry : kPolicyRegistry)
    if (name == entry.name) return entry.make();
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
