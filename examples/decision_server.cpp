// Decision server: a long-lived admission-serving loop over the FACS-P
// policies — live workload synthesis on a simulated clock, or replay of a
// trace recorded with `scenario_runner trace record`.
//
//   $ ./decision_server --scenario paper-grid --duration 60 --seed 7
//   $ ./decision_server --replay storm.trace.csv --threads 4 --out storm
//
// Writes three files per run (prefix via --out, default "server"):
//   <prefix>_telemetry.csv  per-second counters + CBP/CDP.  Deterministic:
//                           byte-identical for a given (scenario, seed,
//                           shards) at ANY thread count.
//   <prefix>_latency.csv    per-second decision-latency p50/p95/p99 (wall
//                           clock; machine-dependent, never diff in CI).
//   <prefix>_summary.json   totals, throughput, overall percentiles.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "serve/decision_loop.h"
#include "workload/catalog.h"

using namespace facsp;

namespace {

int usage(const char* argv0, FILE* dst) {
  std::fprintf(
      dst,
      "usage: %s [options]\n"
      "\n"
      "Request source (default: live synthesis from the scenario):\n"
      "  --scenario <name>        catalog scenario (default paper-grid)\n"
      "  --config <file>          key=value scenario config file\n"
      "  --replay <trace.csv>     replay a recorded trace instead of\n"
      "                           generating live (see 'scenario_runner\n"
      "                           trace record')\n"
      "\n"
      "Serving parameters:\n"
      "  --policy <name>          admission policy (default facs-p)\n"
      "  --duration <s>           simulated seconds to serve (default 60;\n"
      "                           replay derives it from the trace)\n"
      "  --rate <req/s>           live arrival rate, all shards (default 2000)\n"
      "  --handoff-fraction <f>   live handoff share in [0,1] (default 0.25)\n"
      "  --shards <int>           independent cells (default 4; part of the\n"
      "                           result, unlike --threads)\n"
      "  --threads <int>          workers draining shards, 0 = all cores\n"
      "                           (default 1; telemetry is byte-identical\n"
      "                           for every value)\n"
      "  --batch-window <s>       admission batching window (default 0.1)\n"
      "  --batch-max <int>        max requests per batch (default 256)\n"
      "  --seed <u64>             override the scenario seed\n"
      "\n"
      "Network front-end (see docs/serving.md):\n"
      "  --listen <port>          serve admission requests over TCP instead\n"
      "                           of generating/replaying in-process\n"
      "                           (length-prefixed binary frames; 0 binds\n"
      "                           an ephemeral port and prints it)\n"
      "  --telemetry-port <port>  plaintext scrape endpoint (latest\n"
      "                           telemetry row + metrics registry)\n"
      "  --host <addr>            bind address (default 127.0.0.1)\n"
      "  --pending-cap <n>        max undecided requests before drop-oldest\n"
      "                           shedding (default 8192)\n"
      "  --max-skew <s>           refuse arrivals more than this many\n"
      "                           simulated seconds past the watermark\n"
      "                           (default 3600)\n"
      "  --flush-idle <s>         close open batches after this much\n"
      "                           wall-clock quiet (default 0.05)\n"
      "  --io-timeout <s>         per-connection read/write timeout\n"
      "                           (default 30)\n"
      "  --idle-timeout <s>       reap silent connections (default 300)\n"
      "\n"
      "Output:\n"
      "  --out <prefix>           file prefix (default 'server')\n"
      "  --table                  also print the per-second table\n"
      "  --trace <file>           record a Chrome trace-event JSON of the\n"
      "                           run (open in Perfetto / chrome://tracing)\n"
      "  --metrics <file>         write a metrics snapshot after the run\n"
      "                           (.csv suffix -> CSV, otherwise JSON)\n"
      "  --metrics-interval <s>   also flush the registry to --metrics\n"
      "                           every this many simulated seconds (CSV,\n"
      "                           tmp+rename; survives a crash)\n"
      "  --help                   this message\n",
      argv0);
  return dst == stderr ? 2 : 0;
}

int run(int argc, char** argv) {
  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  std::optional<std::string> replay_path;
  std::optional<std::uint64_t> seed_override;
  std::string out_prefix = "server";
  std::string trace_path;
  std::string metrics_path;
  long long metrics_interval = 0;
  bool print_table = false;
  bool duration_given = false;
  bool scenario_named = false;

  std::optional<int> listen_port;
  std::optional<int> telemetry_port;
  std::optional<std::string> host;
  std::optional<std::uint64_t> pending_cap;
  std::optional<double> max_skew;
  std::optional<double> flush_idle;
  std::optional<double> io_timeout;
  std::optional<double> idle_timeout;

  core::FlagReader flags(argc, argv);
  while (flags.next()) {
    if (flags.is("--help")) return usage(argv[0], stdout);
    if (flags.is("--scenario")) {
      config.scenario_label = flags.value();
      config.scenario = workload::catalog_scenario(config.scenario_label);
      scenario_named = true;
    } else if (flags.is("--config")) {
      config.scenario_label = flags.value();
      config.scenario = core::load_scenario_file(config.scenario_label);
      scenario_named = true;
    } else if (flags.is("--replay"))
      replay_path = flags.value();
    else if (flags.is("--policy"))
      config.policy = flags.value();
    else if (flags.is("--duration")) {
      config.duration_s = flags.int_value();
      duration_given = true;
    } else if (flags.is("--rate"))
      config.requests_per_s = flags.int_value();
    else if (flags.is("--handoff-fraction"))
      config.handoff_fraction = flags.double_value();
    else if (flags.is("--shards"))
      config.shards = flags.int_value();
    else if (flags.is("--threads"))
      config.threads = flags.int_value();
    else if (flags.is("--batch-window"))
      config.batch_window_s = flags.double_value();
    else if (flags.is("--batch-max"))
      config.batch_max = flags.int_value();
    else if (flags.is("--seed"))
      seed_override = flags.u64_value();
    else if (flags.is("--out"))
      out_prefix = flags.value();
    else if (flags.is("--trace"))
      trace_path = flags.value();
    else if (flags.is("--metrics"))
      metrics_path = flags.value();
    else if (flags.is("--metrics-interval"))
      metrics_interval = flags.int_value();
    else if (flags.is("--listen"))
      listen_port = flags.int_value();
    else if (flags.is("--telemetry-port"))
      telemetry_port = flags.int_value();
    else if (flags.is("--host"))
      host = flags.value();
    else if (flags.is("--pending-cap"))
      pending_cap = flags.u64_value();
    else if (flags.is("--max-skew"))
      max_skew = flags.double_value();
    else if (flags.is("--flush-idle"))
      flush_idle = flags.double_value();
    else if (flags.is("--io-timeout"))
      io_timeout = flags.double_value();
    else if (flags.is("--idle-timeout"))
      idle_timeout = flags.double_value();
    else if (flags.is("--table"))
      print_table = true;
    else
      flags.unknown();
  }
  if (seed_override) config.scenario.seed = *seed_override;
  if (!scenario_named) config.scenario_label = "paper-grid";

  if (!listen_port) {
    const char* stray = telemetry_port ? "--telemetry-port"
                       : host          ? "--host"
                       : pending_cap   ? "--pending-cap"
                       : max_skew      ? "--max-skew"
                       : flush_idle    ? "--flush-idle"
                       : io_timeout    ? "--io-timeout"
                       : idle_timeout  ? "--idle-timeout"
                                       : nullptr;
    if (stray)
      throw ConfigError(std::string(stray) + " requires --listen");
  }
  if (metrics_interval < 0)
    throw ConfigError("--metrics-interval must be >= 1");
  if (metrics_interval > 0 && metrics_path.empty())
    throw ConfigError("--metrics-interval requires --metrics <file>");

  // Validate the policy name before the (possibly long) trace load.
  (void)core::policy_factory_by_name(config.policy);

  // Observability on demand: both switches default off, so an untraced run
  // pays only the branch-only disabled path at each instrumentation site.
  if (!metrics_path.empty()) obs::set_metrics_enabled(true);
  if (!trace_path.empty()) obs::Tracer::start();

  if (listen_port) {
    if (replay_path)
      throw ConfigError(
          "--listen and --replay are exclusive: in listen mode the trace "
          "arrives over the socket (see tools/net_loadgen --trace)");
    net::NetConfig net;
    net.port = *listen_port;
    if (telemetry_port) net.telemetry_port = *telemetry_port;
    if (host) net.host = *host;
    if (pending_cap) net.pending_cap = static_cast<std::size_t>(*pending_cap);
    if (max_skew) net.max_skew_s = *max_skew;
    if (flush_idle) net.flush_idle_s = *flush_idle;
    if (io_timeout) {
      net.read_timeout_s = *io_timeout;
      net.write_timeout_s = *io_timeout;
    }
    if (idle_timeout) net.idle_timeout_s = *idle_timeout;
    net.metrics_interval_s = metrics_interval;
    net.metrics_path = metrics_path;
    // The scrape endpoint serves the registry; count even without --metrics.
    obs::set_metrics_enabled(true);

    net::NetServer server(config, net);
    net::NetServer::route_signals(&server);
    std::printf("listening on %s:%u (admission)", net.host.c_str(),
                server.admission_port());
    if (net.telemetry_port >= 0)
      std::printf(", %s:%u (telemetry)", net.host.c_str(),
                  server.telemetry_port());
    std::printf("\npolicy %s, %d shards, batch %g s / %d max, pending cap "
                "%zu; SIGINT/SIGTERM drains\n",
                config.policy.c_str(), config.shards, config.batch_window_s,
                config.batch_max, net.pending_cap);
    std::fflush(stdout);
    server.run();
    net::NetServer::route_signals(nullptr);

    if (!trace_path.empty()) {
      obs::Tracer::stop();
      obs::Tracer::write_json(trace_path);
    }
    if (!metrics_path.empty()) obs::write_snapshot(metrics_path);

    const serve::ServerResult result = server.result();
    serve::write_telemetry_csv(result, out_prefix + "_telemetry.csv");
    serve::write_latency_csv(result, out_prefix + "_latency.csv");
    serve::write_summary_json(config, result, out_prefix + "_summary.json");
    if (print_table) serve::telemetry_figure(result).print_table(std::cout);
    serve::write_summary_json(config, result, std::cout);
    std::printf("wrote %s_telemetry.csv, %s_latency.csv, %s_summary.json\n",
                out_prefix.c_str(), out_prefix.c_str(), out_prefix.c_str());
    return 0;
  }

  std::unique_ptr<obs::SnapshotWriter> snapshots;
  if (metrics_interval > 0)
    snapshots = std::make_unique<obs::SnapshotWriter>(
        metrics_path, metrics_interval, obs::Registry::instance());

  serve::ServerResult result;
  if (replay_path) {
    if (!duration_given) config.duration_s = 0;  // derive from the trace
    std::vector<serve::StampedRequest> trace =
        serve::read_trace_file(*replay_path);
    serve::DecisionServer server(config, std::move(trace));
    if (snapshots)
      server.set_second_hook([&snapshots](std::int64_t sec,
                                          const serve::TelemetryRow&) {
        snapshots->on_second(sec);
      });
    std::printf("replaying %s: %lld s, policy %s, %d shards, %d threads\n",
                replay_path->c_str(),
                static_cast<long long>(server.duration_s()),
                config.policy.c_str(), config.shards, config.threads);
    result = server.run();
  } else {
    serve::DecisionServer server(config);
    if (snapshots)
      server.set_second_hook([&snapshots](std::int64_t sec,
                                          const serve::TelemetryRow&) {
        snapshots->on_second(sec);
      });
    std::printf(
        "serving live: %lld s at %d req/s, policy %s, %d shards, %d "
        "threads, seed %llu\n",
        static_cast<long long>(server.duration_s()), config.requests_per_s,
        config.policy.c_str(), config.shards, config.threads,
        static_cast<unsigned long long>(config.scenario.seed));
    result = server.run();
  }

  if (!trace_path.empty()) {
    obs::Tracer::stop();
    obs::Tracer::write_json(trace_path);
    std::printf("wrote trace %s (%llu events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(obs::Tracer::recorded_events()));
  }
  if (snapshots) {
    snapshots->flush();
    std::printf("wrote metrics %s (%llu snapshots)\n", metrics_path.c_str(),
                static_cast<unsigned long long>(snapshots->flush_count()));
  } else if (!metrics_path.empty()) {
    obs::write_snapshot(metrics_path);
    std::printf("wrote metrics %s\n", metrics_path.c_str());
  }

  serve::write_telemetry_csv(result, out_prefix + "_telemetry.csv");
  serve::write_latency_csv(result, out_prefix + "_latency.csv");
  serve::write_summary_json(config, result, out_prefix + "_summary.json");

  if (print_table) serve::telemetry_figure(result).print_table(std::cout);
  serve::write_summary_json(config, result, std::cout);
  std::printf("wrote %s_telemetry.csv, %s_latency.csv, %s_summary.json\n",
              out_prefix.c_str(), out_prefix.c_str(), out_prefix.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return core::run_cli(argc, argv, run, usage);
}
