#include "serve/decision_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "fuzzy/inference.h"
#include "workload/catalog.h"

namespace facsp::serve {
namespace {

ServerConfig small_config() {
  ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario.seed = 11;
  config.duration_s = 3;
  config.requests_per_s = 400;
  config.shards = 3;  // deliberately not divisible: rates 134/133/133
  config.threads = 1;
  return config;
}

std::string telemetry_string(const ServerResult& result) {
  std::ostringstream os;
  write_telemetry_csv(result, os);
  return os.str();
}

TEST(DecisionServer, TelemetryIsByteIdenticalAcrossThreadCounts) {
  ServerConfig config = small_config();
  std::string baseline;
  for (const int threads : {1, 2, 4}) {
    config.threads = threads;
    DecisionServer server(config);
    const std::string csv = telemetry_string(server.run());
    if (threads == 1)
      baseline = csv;
    else
      EXPECT_EQ(csv, baseline) << "threads=" << threads;
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(DecisionServer, SameSeedSameBytesDifferentSeedDifferent) {
  const ServerConfig config = small_config();
  DecisionServer a(config), b(config);
  const std::string ta = telemetry_string(a.run());
  EXPECT_EQ(ta, telemetry_string(b.run()));

  ServerConfig other = config;
  other.scenario.seed = 12;
  DecisionServer c(other);
  EXPECT_NE(ta, telemetry_string(c.run()));
}

TEST(DecisionServer, CountersAreConsistent) {
  DecisionServer server(small_config());
  const ServerResult result = server.run();
  ASSERT_EQ(result.telemetry.size(), 3u);
  std::int64_t decisions = 0;
  for (const TelemetryRow& row : result.telemetry) {
    EXPECT_EQ(row.decisions, row.new_attempts + row.handoff_attempts);
    EXPECT_EQ(row.decisions,
              row.admitted + row.blocked_new + row.dropped_handoff);
    EXPECT_GE(row.queue_depth, 0);
    // Text is 1 BU, so active sessions can never exceed the capacity in BU
    // (per shard); summed over 3 shards.
    EXPECT_LE(row.active_sessions,
              static_cast<std::int64_t>(
                  3 * small_config().scenario.capacity_bu));
    decisions += row.decisions;
  }
  EXPECT_EQ(decisions, result.total_decisions);
  EXPECT_EQ(decisions, 3 * 400);  // rate honoured exactly, every second
  EXPECT_GT(result.total_admitted, 0);
  EXPECT_EQ(result.overall.count(),
            static_cast<std::uint64_t>(result.total_decisions));
}

TEST(DecisionServer, SessionsExpireAndFreeCapacity) {
  // 1 s holding inside a 4 s run: admissions must continue after the cell
  // first fills, because earlier calls finish and release bandwidth.
  ServerConfig config = small_config();
  config.duration_s = 4;
  config.scenario.traffic.mean_holding_s = 1.0;
  DecisionServer server(config);
  const ServerResult result = server.run();
  std::int64_t late_admitted = 0;
  for (std::size_t i = 2; i < result.telemetry.size(); ++i)
    late_admitted += result.telemetry[i].admitted;
  EXPECT_GT(late_admitted, 0);
}

TEST(DecisionServer, ReplayMatchesAcrossThreadCountsAndDerivesDuration) {
  ServerConfig config = small_config();
  const std::vector<StampedRequest> trace = record_trace(config);
  ASSERT_EQ(trace.size(), 3u * 400u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_LE(trace[i - 1].req.now, trace[i].req.now);

  ServerConfig replay = config;
  replay.duration_s = 0;  // derive from the trace
  std::string baseline;
  for (const int threads : {1, 2}) {
    replay.threads = threads;
    DecisionServer server(replay, trace);
    EXPECT_EQ(server.duration_s(), 3);
    const ServerResult result = server.run();
    EXPECT_EQ(result.total_decisions,
              static_cast<std::int64_t>(trace.size()));
    const std::string csv = telemetry_string(result);
    if (threads == 1)
      baseline = csv;
    else
      EXPECT_EQ(csv, baseline);
  }
}

TEST(DecisionServer, EmptyTraceWithoutDurationThrows) {
  ServerConfig config = small_config();
  config.duration_s = 0;
  EXPECT_THROW(DecisionServer(config, {}), ConfigError);
}

TEST(ServerConfig, ValidationRejectsBadValues) {
  ServerConfig config = small_config();
  config.shards = 0;
  EXPECT_THROW(config.validate(true), ConfigError);
  config = small_config();
  config.batch_window_s = 0.0;
  EXPECT_THROW(config.validate(true), ConfigError);
  config = small_config();
  config.batch_window_s = 1.5;
  EXPECT_THROW(config.validate(true), ConfigError);
  config = small_config();
  config.batch_max = 0;
  EXPECT_THROW(config.validate(true), ConfigError);
  config = small_config();
  config.handoff_fraction = 1.5;
  EXPECT_THROW(config.validate(true), ConfigError);
  config = small_config();
  config.duration_s = 0;
  EXPECT_THROW(config.validate(true), ConfigError);   // live needs a duration
  EXPECT_NO_THROW(config.validate(false));            // replay derives it
}

TEST(DecisionServer, UnknownPolicyThrows) {
  ServerConfig config = small_config();
  config.policy = "no-such-policy";
  EXPECT_THROW(DecisionServer{config}, ConfigError);
}

TEST(DecisionServer, RenderingHasStableShape) {
  DecisionServer server(small_config());
  const ServerResult result = server.run();

  const std::string telemetry = telemetry_string(result);
  EXPECT_EQ(telemetry.find("second,decisions,admitted,new_attempts,"
                           "blocked_new,handoff_attempts,dropped_handoff,"
                           "queue_depth,active_sessions,cbp_pct,cdp_pct\n"),
            0u);
  EXPECT_EQ(std::count(telemetry.begin(), telemetry.end(), '\n'), 1 + 3);

  std::ostringstream lat;
  write_latency_csv(result, lat);
  const std::string latency = lat.str();
  EXPECT_EQ(latency.find(
                "second,samples,p50_ns,p95_ns,p99_ns,p999_ns,mean_ns,max_ns\n"),
            0u);
  EXPECT_EQ(std::count(latency.begin(), latency.end(), '\n'), 1 + 3);

  std::ostringstream out;
  write_summary_json(small_config(), result, out);
  const std::string summary = out.str();
  for (const char* key :
       {"\"policy\"", "\"total_decisions\"", "\"cbp_pct\"", "\"cdp_pct\"",
        "\"decisions_per_s\"", "\"latency_ns\"", "\"p99\"", "\"p999\"",
        "\"mean\"", "\"metadata\"", "\"scenario\"", "\"simd\"",
        "\"latency_histogram\"", "\"sub_bucket_bits\""})
    EXPECT_NE(summary.find(key), std::string::npos) << key;
  // The histogram geometry is part of the summary format, values included.
  EXPECT_NE(summary.find("\"latency_histogram\": {\"sub_bucket_bits\": 4, "
                         "\"max_shift\": 37, \"buckets\": 624}"),
            std::string::npos)
      << summary;
  // "simd" names the lane kernels that run on this machine, not the build
  // flag.
  const std::string simd = fuzzy::lane_simd_available() ? "true" : "false";
  EXPECT_NE(summary.find("\"simd\": " + simd + ","), std::string::npos)
      << summary;

  const sim::Figure fig = telemetry_figure(result);
  ASSERT_EQ(fig.series().size(), 4u);
  EXPECT_EQ(fig.series()[0].size(), 3u);
}

}  // namespace
}  // namespace facsp::serve
