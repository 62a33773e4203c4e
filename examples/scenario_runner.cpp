// Scenario runner: drive single runs or declarative multi-axis sweeps from
// the command line — no recompilation, shareable setups, structured output.
//
//   $ ./scenario_runner --list-scenarios
//   $ ./scenario_runner --scenario bursty-onoff facs-p 60 16
//   $ ./scenario_runner --scenario paper-grid --policies facs-p,gc \
//         --sweep n=20,40,60 --sweep traffic.arrival.kind=uniform,onoff \
//         --reps 8 --threads 0 --out curves
//
// The second form runs one cell and prints per-replication metrics; the
// third runs a policy x arrival-kind x N sweep and writes curves.csv +
// curves.json (stable schema, see docs/experiments.md).  Thread count is a
// pure throughput knob: results are bit-identical for every value.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/config_io.h"
#include "core/multicell.h"
#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/decision_loop.h"
#include "serve/trace.h"
#include "sim/stats.h"
#include "workload/catalog.h"

using namespace facsp;

namespace {

// The one place every flag is documented.  Keep this in sync with
// docs/experiments.md.
int usage(const char* argv0, FILE* dst) {
  std::fprintf(
      dst,
      "usage: %s [options] [<policy> [N [reps [threads]]]]\n"
      "\n"
      "Catalog and config inspection (print and exit):\n"
      "  --help                  this message\n"
      "  --list-scenarios        catalog names + descriptions\n"
      "  --list-policies         policy registry names\n"
      "  --list-keys             every config key a --sweep axis can set\n"
      "  --dump-default          the paper baseline as a config file\n"
      "  --dump-scenario <name>  any catalog entry as a config file\n"
      "\n"
      "Base scenario (default: the paper Sec. 4 baseline):\n"
      "  --scenario <name>       start from a catalog entry\n"
      "  --config <file>         start from a key=value config file\n"
      "  --seed <u64>            override the scenario seed (reproduce any\n"
      "                          sweep cell in isolation)\n"
      "  --cells <int>           override sim.cells: shard the world into\n"
      "                          that many super-grid cells (multi-cell\n"
      "                          engine; single runs print per-cell rows)\n"
      "  --cell-threads <int>    override sim.threads: workers draining\n"
      "                          shards in parallel, 0 = all cores (pure\n"
      "                          throughput knob, bit-identical results)\n"
      "  --workload-cells <int>  override sim.workload_cells: only the\n"
      "                          first k spiral cells offer fresh traffic\n"
      "                          (sparse grids; 0 = every cell generates)\n"
      "\n"
      "Sweep axes (any of these selects sweep mode):\n"
      "  --policies <p1,p2,...>  policy axis (see --list-policies)\n"
      "  --sweep <axis=v1,v2,..> add an axis; repeatable.  axis is 'n',\n"
      "                          'scenario', or any scenario config key,\n"
      "                          e.g. --sweep traffic.arrival.mean_on_s=30,60\n"
      "\n"
      "Execution and output:\n"
      "  --n <int>               request count when no n axis (default 60)\n"
      "  --reps <int>            replications per cell (default 8)\n"
      "  --threads <int>         worker threads, 0 = all cores (default 1);\n"
      "                          in a multi-cell single run this drives the\n"
      "                          shard workers unless --cell-threads is set\n"
      "  --out <prefix>          write <prefix>.csv and <prefix>.json\n"
      "  --trace <file>          record a Chrome trace-event JSON of the\n"
      "                          run (open in Perfetto / chrome://tracing)\n"
      "  --metrics <file>        write a metrics snapshot after the run\n"
      "                          (.csv suffix -> CSV, otherwise JSON)\n"
      "\n"
      "Decision-server traces (see docs/serving.md):\n"
      "  trace record --out <trace.csv> [--scenario ... --seed ...]\n"
      "  ('%s trace --help' for the full flag list; replay a trace with\n"
      "  'decision_server --replay <trace.csv>')\n"
      "\n"
      "Single-run mode (no axes): positional <policy> [N [reps [threads]]]\n"
      "prints per-replication metrics.\n"
      "Policies: facs-p | facs-pr | facs | scc | gc | fgc | cs.\n",
      argv0, argv0);
  return dst == stderr ? 2 : 0;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  for (std::string& tok : core::split_fields(s, ','))
    if (!tok.empty()) out.push_back(std::move(tok));
  return out;
}

using core::parse_int;

struct SweepAxisArg {
  std::string axis;
  std::vector<std::string> values;
};

/// --trace / --metrics lifecycle shared by every subcommand: switch the
/// observability layer on before the run, flush the artifacts after.
struct ObsSession {
  std::string trace_path;
  std::string metrics_path;

  void begin() const {
    if (!metrics_path.empty()) obs::set_metrics_enabled(true);
    if (!trace_path.empty()) obs::Tracer::start();
  }
  void finish() const {
    if (!trace_path.empty()) {
      obs::Tracer::stop();
      obs::Tracer::write_json(trace_path);
      std::printf("wrote trace %s (%llu events)\n", trace_path.c_str(),
                  static_cast<unsigned long long>(
                      obs::Tracer::recorded_events()));
    }
    if (!metrics_path.empty()) {
      obs::write_snapshot(metrics_path);
      std::printf("wrote metrics %s\n", metrics_path.c_str());
    }
  }
};

struct Options {
  std::optional<std::string> scenario_name;
  std::optional<std::string> config_file;
  std::optional<std::uint64_t> seed;
  std::optional<int> cells;
  std::optional<int> cell_threads;
  std::optional<int> workload_cells;
  std::vector<std::string> policies;
  std::vector<SweepAxisArg> sweeps;
  std::optional<std::string> out;
  ObsSession obs;
  std::string policy = "facs-p";
  int n = 60;
  int reps = 8;
  /// Empty = not given (sweeps default to 1; multi-cell single runs fall
  /// back to the scenario's sim.threads).
  std::optional<int> threads;
  bool sweep_mode = false;
};

void print_single_run(const core::ResultTable& table,
                      const std::vector<core::CellMetrics>& cells,
                      const Options& opt, const std::string& scenario_label) {
  const int threads = opt.threads.value_or(1);
  std::printf("scenario: %s  policy: %s  N=%d  replications=%d  threads=%s\n\n",
              scenario_label.c_str(), opt.policy.c_str(), opt.n, opt.reps,
              threads == 0 ? "auto" : std::to_string(threads).c_str());
  for (const core::CellMetrics& cell : cells)
    std::printf("  rep %2llu: accept %5.1f%%  drop %5.2f%%  util %5.1f%%\n",
                static_cast<unsigned long long>(cell.replication),
                cell.acceptance_percent, cell.dropping_percent,
                cell.utilization_percent);
  const core::ResultRow& row = table.rows.front();
  std::printf(
      "\nmean over %d replications:\n"
      "  acceptance  %5.1f%%  ±%.1f (95%% CI)\n"
      "  dropping    %5.2f%%\n"
      "  utilization %5.1f%%\n",
      opt.reps, row.acceptance_percent.mean(),
      row.acceptance_percent.ci_half_width(), row.dropping_percent.mean(),
      row.utilization_percent.mean());
}

void print_sweep(const core::ResultTable& table) {
  std::printf("%zu cells x %d replications\n\n", table.rows.size(),
              table.replications);
  for (const std::string& axis : table.axes) std::printf("%-18s ", axis.c_str());
  std::printf("%10s %9s %8s %8s\n", "accept%", "ci", "drop%", "util%");
  for (const core::ResultRow& row : table.rows) {
    for (const std::string& coord : row.coords)
      std::printf("%-18s ", coord.c_str());
    std::printf("%10.2f ±%-8.2f %8.3f %8.2f\n",
                row.acceptance_percent.mean(),
                row.acceptance_percent.ci_half_width(table.ci_level),
                row.dropping_percent.mean(), row.utilization_percent.mean());
  }
}

// Multi-cell single run: per-replication engine runs, per-cell and
// aggregate rows (CBP = new-call blocking, CDP = handoff dropping — the
// paper's split).  --out writes the same rows as a ResultTable with a
// `cell` coordinate column ("cell0".."cellN", "all").
int run_multicell_single(const core::ScenarioConfig& base, const Options& opt,
                         const std::string& scenario_label) {
  // Same input hygiene as the sweep path (which validates via SweepSpec).
  if (opt.reps < 1) throw ConfigError("replications must be >= 1");
  if (opt.n < 1) throw ConfigError("N must be >= 1");
  const core::PolicyFactory factory = core::policy_factory_by_name(opt.policy);
  const int cells = base.multicell.cells;

  struct Row {
    std::string label;
    core::ResultRow result;
    double ho_in = 0.0, ho_out = 0.0, left = 0.0;  // mean per replication
  };
  std::vector<Row> rows(static_cast<std::size_t>(cells) + 1);
  for (int rep = 0; rep < opt.reps; ++rep) {
    core::MultiCellEngine engine(base, factory,
                                 static_cast<std::uint64_t>(rep));
    const core::MultiCellResult result = engine.run(opt.n);
    // The same per-replication derivation + reduction the sweep layer
    // performs (CellMetrics::from_run, CBP = 100 - acceptance), so this
    // table's digits match a --sweep table of the same runs exactly.
    const auto add = [&](Row& row, const core::RunResult& r) {
      const core::CellMetrics m = core::CellMetrics::from_run(
          opt.n, static_cast<std::uint64_t>(rep), r);
      row.result.acceptance_percent.add(m.acceptance_percent);
      row.result.blocking_percent.add(100.0 - m.acceptance_percent);
      row.result.dropping_percent.add(m.dropping_percent);
      row.result.utilization_percent.add(m.utilization_percent);
      row.result.completion_percent.add(m.completion_percent);
    };
    for (int k = 0; k < cells; ++k) {
      Row& row = rows[static_cast<std::size_t>(k)];
      add(row, result.cells[static_cast<std::size_t>(k)].run);
      row.ho_in += static_cast<double>(
          result.cells[static_cast<std::size_t>(k)].handoffs_in);
      row.ho_out += static_cast<double>(
          result.cells[static_cast<std::size_t>(k)].handoffs_out);
      row.left += static_cast<double>(
          result.cells[static_cast<std::size_t>(k)].left_world);
    }
    add(rows.back(), result.aggregate);
  }
  for (int k = 0; k < cells; ++k) {
    rows[static_cast<std::size_t>(k)].label = "cell" + std::to_string(k);
    Row& row = rows[static_cast<std::size_t>(k)];
    row.ho_in /= opt.reps;
    row.ho_out /= opt.reps;
    row.left /= opt.reps;
  }
  rows.back().label = "all";
  for (Row& row : rows) row.result.n = opt.n;

  std::printf(
      "scenario: %s  policy: %s  N=%d/cell  replications=%d  cells=%d  "
      "cell-threads=%s\n\n",
      scenario_label.c_str(), opt.policy.c_str(), opt.n, opt.reps, cells,
      base.multicell.threads == 0
          ? "auto"
          : std::to_string(base.multicell.threads).c_str());
  std::printf("%-8s %9s %8s %8s %8s %8s %8s %8s\n", "cell", "accept%",
              "CBP%", "CDP%", "util%", "ho_in", "ho_out", "left");
  for (const Row& row : rows) {
    std::printf("%-8s %9.2f %8.2f %8.2f %8.2f", row.label.c_str(),
                row.result.acceptance_percent.mean(),
                row.result.blocking_percent.mean(),
                row.result.dropping_percent.mean(),
                row.result.utilization_percent.mean());
    if (row.label == "all")
      std::printf(" %8s %8s %8s\n", "-", "-", "-");
    else
      std::printf(" %8.1f %8.1f %8.1f\n", row.ho_in, row.ho_out, row.left);
  }
  std::printf(
      "\naggregate over %d replications: accept %.2f%% ±%.2f (95%% CI), "
      "CBP %.2f%%, CDP %.2f%%\n",
      opt.reps, rows.back().result.acceptance_percent.mean(),
      rows.back().result.acceptance_percent.ci_half_width(),
      rows.back().result.blocking_percent.mean(),
      rows.back().result.dropping_percent.mean());

  if (opt.out) {
    core::ResultTable table;
    table.axes = {"policy", "cell", "n"};
    table.replications = opt.reps;
    for (Row& row : rows) {
      row.result.coords = {opt.policy, row.label, std::to_string(opt.n)};
      table.rows.push_back(std::move(row.result));
    }
    core::write_result_csv(table, *opt.out + ".csv");
    core::write_result_json(table, *opt.out + ".json");
    std::printf("\nwrote %s.csv and %s.json\n", opt.out->c_str(),
                opt.out->c_str());
  }
  return 0;
}

int run(const Options& opt) {
  // --- base scenario -------------------------------------------------------
  core::ScenarioConfig base;
  std::string scenario_label = "paper";
  if (opt.scenario_name && opt.config_file)
    throw ConfigError("--scenario and --config are mutually exclusive");
  if (opt.scenario_name) {
    scenario_label = *opt.scenario_name;
    base = workload::catalog_scenario(scenario_label);
  } else if (opt.config_file) {
    scenario_label = *opt.config_file;
    base = core::load_scenario_file(scenario_label);
  } else {
    base = core::paper_scenario();
  }
  if (opt.seed) base.seed = *opt.seed;
  if (opt.cells) base.multicell.cells = *opt.cells;
  if (opt.cell_threads) base.multicell.threads = *opt.cell_threads;
  if (opt.workload_cells) base.multicell.workload_cells = *opt.workload_cells;
  if (opt.cells || opt.cell_threads || opt.workload_cells) base.validate();

  // Multi-cell single runs surface per-cell rows via the engine directly;
  // sweeps keep aggregating (the engine runs inside every sweep cell).
  // There is no per-replication parallelism on this path, so a plain
  // --threads (or positional threads) drives the shard workers instead of
  // being silently ignored; an explicit --cell-threads still wins.
  if (!opt.sweep_mode && base.multicell.cells > 1) {
    if (!opt.cell_threads && opt.threads) {
      base.multicell.threads = *opt.threads;
      base.validate();
    }
    return run_multicell_single(base, opt, scenario_label);
  }

  // --- axes, in canonical order: policy, scenario, params, n ---------------
  core::SweepSpec spec;
  spec.base = base;
  spec.fallback_policy = opt.policy;
  spec.fallback_n = opt.n;
  spec.replications = opt.reps;
  spec.threads = opt.threads.value_or(1);

  if (!opt.policies.empty()) spec.policy_axis(opt.policies);
  for (const SweepAxisArg& s : opt.sweeps) {
    if (s.axis == "scenario") {
      auto choices = core::scenario_choices(s.values);
      if (opt.seed)
        for (auto& choice : choices) choice.config.seed = *opt.seed;
      spec.scenario_axis(std::move(choices));
    }
  }
  for (const SweepAxisArg& s : opt.sweeps)
    if (s.axis != "scenario" && s.axis != "n")
      spec.param_axis(s.axis, s.values);
  for (const SweepAxisArg& s : opt.sweeps) {
    if (s.axis == "n") {
      std::vector<int> ns;
      for (const std::string& v : s.values)
        ns.push_back(parse_int(v, "n value"));
      spec.n_axis(std::move(ns));
    }
  }

  // --- execute -------------------------------------------------------------
  const core::SweepRunner runner(std::move(spec));
  std::vector<core::CellMetrics> cells;
  const core::ResultTable table = runner.run(&cells);

  if (opt.sweep_mode)
    print_sweep(table);
  else
    print_single_run(table, cells, opt, scenario_label);

  if (opt.out) {
    core::write_result_csv(table, *opt.out + ".csv");
    core::write_result_json(table, *opt.out + ".json");
    std::printf("\nwrote %s.csv and %s.json\n", opt.out->c_str(),
                opt.out->c_str());
  }
  return 0;
}

int trace_usage(const char* argv0, FILE* dst) {
  std::fprintf(
      dst,
      "usage: %s trace record --out <trace.csv> [options]\n"
      "\n"
      "record options: --scenario <name> | --config <file>, --seed <u64>,\n"
      "  --duration <s> (default 60), --rate <req/s> (default 2000),\n"
      "  --shards <int> (default 4), --handoff-fraction <f>\n"
      "\n"
      "Recorded traces pin the policy inputs completely (the noisy\n"
      "predicted angles are recorded, not re-drawn), so a replay's\n"
      "telemetry CSV (decision_server --replay <trace.csv>) is\n"
      "byte-identical across runs, machines and thread counts.\n",
      argv0);
  return dst == stderr ? 2 : 0;
}

// `trace record`: capture the decision server's request stream to a
// byte-stable CSV that `decision_server --replay` feeds back through the
// serving loop (see docs/serving.md).
int run_trace(int argc, char** argv) {
  if (argc < 3) return trace_usage(argv[0], stderr);
  const std::string mode = argv[2];
  if (mode == "--help" || mode == "-h") return trace_usage(argv[0], stdout);
  if (mode != "record") {
    std::fprintf(stderr, "error: unknown trace subcommand '%s'\n\n",
                 mode.c_str());
    return trace_usage(argv[0], stderr);
  }

  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario_label = "paper-grid";
  std::optional<std::string> out;

  core::FlagReader flags(argc, argv, 3);
  while (flags.next()) {
    if (flags.is("--help") || flags.is("-h"))
      return trace_usage(argv[0], stdout);
    if (flags.is("--scenario")) {
      config.scenario_label = flags.value();
      config.scenario = workload::catalog_scenario(config.scenario_label);
    } else if (flags.is("--config")) {
      config.scenario_label = flags.value();
      config.scenario = core::load_scenario_file(config.scenario_label);
    } else if (flags.is("--seed"))
      config.scenario.seed = flags.u64_value();
    else if (flags.is("--duration"))
      config.duration_s = flags.int_value();
    else if (flags.is("--rate"))
      config.requests_per_s = flags.int_value();
    else if (flags.is("--handoff-fraction"))
      config.handoff_fraction = flags.double_value();
    else if (flags.is("--shards"))
      config.shards = flags.int_value();
    else if (flags.is("--out"))
      out = flags.value();
    else
      flags.unknown();
  }

  if (!out) throw ConfigError("trace record: --out <trace.csv> is required");
  const std::vector<serve::StampedRequest> trace = serve::record_trace(config);
  serve::write_trace_file(trace, *out);
  std::printf("recorded %zu requests (%lld s at %d req/s, seed %llu) to %s\n",
              trace.size(), static_cast<long long>(config.duration_s),
              config.requests_per_s,
              static_cast<unsigned long long>(config.scenario.seed),
              out->c_str());
  return 0;
}

int run_main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;

  core::FlagReader flags(argc, argv);
  while (flags.next()) {
    if (flags.is("--help") || flags.is("-h")) return usage(argv[0], stdout);
    if (flags.is("--list-scenarios")) {
      const auto& entries = workload::ScenarioCatalog::instance().entries();
      int width = 0;
      for (const auto& entry : entries)
        width = std::max(width, static_cast<int>(entry.name.size()));
      for (const auto& entry : entries)
        std::printf("%-*s %s\n", width, entry.name.c_str(),
                    entry.description.c_str());
      return 0;
    }
    if (flags.is("--list-policies")) {
      for (const std::string& name : core::policy_names())
        std::printf("%s\n", name.c_str());
      return 0;
    }
    if (flags.is("--list-keys")) {
      for (const std::string& key : core::scenario_keys())
        std::printf("%s\n", key.c_str());
      return 0;
    }
    if (flags.is("--dump-default")) {
      core::save_scenario(core::paper_scenario(), std::cout);
      return 0;
    }
    if (flags.is("--dump-scenario")) {
      core::save_scenario(workload::catalog_scenario(flags.value()),
                          std::cout);
      return 0;
    }
    if (flags.is("--scenario")) {
      opt.scenario_name = flags.value();
    } else if (flags.is("--config")) {
      opt.config_file = flags.value();
    } else if (flags.is("--seed")) {
      opt.seed = flags.u64_value();
    } else if (flags.is("--cells")) {
      opt.cells = flags.int_value();
    } else if (flags.is("--cell-threads")) {
      opt.cell_threads = flags.int_value();
    } else if (flags.is("--workload-cells")) {
      opt.workload_cells = flags.int_value();
    } else if (flags.is("--policies")) {
      if (!opt.policies.empty()) throw ConfigError("policy axis given twice");
      opt.policies = split_csv(flags.value());
      if (opt.policies.empty()) throw ConfigError("--policies is empty");
      opt.sweep_mode = true;
    } else if (flags.is("--sweep")) {
      const std::string value = flags.value();
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0)
        throw ConfigError("--sweep expects <axis=v1,v2,...>, got '" + value +
                          "'");
      SweepAxisArg axis;
      axis.axis = value.substr(0, eq);
      axis.values = split_csv(value.substr(eq + 1));
      if (axis.values.empty())
        throw ConfigError("--sweep axis '" + axis.axis + "' has no values");
      if (axis.axis == "policy") {
        if (!opt.policies.empty()) throw ConfigError("policy axis given twice");
        opt.policies = axis.values;
      } else {
        opt.sweeps.push_back(std::move(axis));
      }
      opt.sweep_mode = true;
    } else if (flags.is("--n")) {
      opt.n = flags.int_value();
    } else if (flags.is("--reps")) {
      opt.reps = flags.int_value();
    } else if (flags.is("--threads")) {
      opt.threads = flags.int_value();
    } else if (flags.is("--out")) {
      opt.out = flags.value();
    } else if (flags.is("--trace")) {
      opt.obs.trace_path = flags.value();
    } else if (flags.is("--metrics")) {
      opt.obs.metrics_path = flags.value();
    } else if (flags.is_flag()) {
      flags.unknown();
    } else {
      positional.push_back(flags.arg());
    }
  }

  // Positional tail: <policy> [N [reps [threads]]] (single-run style, still
  // honoured in sweep mode for the fallback policy / N).
  if (positional.size() > 4) {
    std::fprintf(stderr, "error: too many positional arguments\n\n");
    return usage(argv[0], stderr);
  }
  if (positional.size() >= 1) opt.policy = positional[0];
  if (positional.size() >= 2) opt.n = parse_int(positional[1], "positional N");
  if (positional.size() >= 3)
    opt.reps = parse_int(positional[2], "positional reps");
  if (positional.size() >= 4)
    opt.threads = parse_int(positional[3], "positional threads");

  opt.obs.begin();
  const int rc = run(opt);
  opt.obs.finish();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "trace")
    return core::run_cli(argc, argv, run_trace, trace_usage);
  return core::run_cli(argc, argv, run_main, usage);
}
