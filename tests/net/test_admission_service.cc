// AdmissionService: the socket front-end's batching/telemetry core.  The
// headline property is byte-identity — a trace fed through submit() in
// arrival order produces exactly the telemetry DecisionServer emits
// replaying the same trace — plus the overload (shed), ordering (reorder
// refusal) and drain contracts.
#include "net/admission_service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "serve/decision_loop.h"
#include "workload/catalog.h"

namespace facsp::net {
namespace {

serve::ServerConfig base_config() {
  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario_label = "paper-grid";
  config.duration_s = 4;
  config.requests_per_s = 200;
  config.shards = 3;
  return config;
}

std::string telemetry_csv(const serve::ServerResult& r) {
  std::ostringstream os;
  serve::write_telemetry_csv(r, os);
  return os.str();
}

/// Replay `trace` in-process (the reference) and through the service (the
/// socket path); both as telemetry CSV bytes.
struct BothRuns {
  std::string replay_csv;
  std::string service_csv;
  serve::ServerResult replay;
  serve::ServerResult service;
};

BothRuns run_both(const serve::ServerConfig& config,
                  const std::vector<serve::StampedRequest>& trace) {
  serve::ServerConfig replay_config = config;
  replay_config.duration_s = 0;  // derive from the trace, like the CLI
  serve::DecisionServer reference(replay_config, trace);
  BothRuns out;
  out.replay = reference.run();
  out.replay_csv = telemetry_csv(out.replay);

  AdmissionService service(config, /*pending_cap=*/1 << 20,
                           /*reserve_seconds=*/64);
  for (const serve::StampedRequest& r : trace)
    EXPECT_EQ(service.submit(/*conn=*/1, r), AdmissionService::Submit::kAccepted);
  service.drain();
  out.service = service.result();
  out.service_csv = telemetry_csv(out.service);
  return out;
}

TEST(AdmissionService, ByteIdenticalTelemetryVsReplay) {
  const serve::ServerConfig config = base_config();
  const auto trace = serve::record_trace(config);
  ASSERT_FALSE(trace.empty());
  const BothRuns r = run_both(config, trace);
  EXPECT_EQ(r.service_csv, r.replay_csv);
  EXPECT_EQ(r.service.total_decisions, r.replay.total_decisions);
  EXPECT_EQ(r.service.total_admitted, r.replay.total_admitted);
  EXPECT_EQ(r.service.telemetry.size(), r.replay.telemetry.size());
}

TEST(AdmissionService, ByteIdenticalAcrossBatchShapes) {
  // The watermark-closure rule must agree with serve::batch_end for every
  // batching geometry, including windows that do not divide a second and a
  // batch_max small enough to trigger size closes.
  for (const auto& [window, batch_max] :
       {std::pair{0.05, 256}, {0.3, 256}, {1.0, 16}, {0.07, 8}}) {
    serve::ServerConfig config = base_config();
    config.duration_s = 3;
    config.batch_window_s = window;
    config.batch_max = batch_max;
    const auto trace = serve::record_trace(config);
    const BothRuns r = run_both(config, trace);
    EXPECT_EQ(r.service_csv, r.replay_csv)
        << "window=" << window << " batch_max=" << batch_max;
  }
}

TEST(AdmissionService, ByteIdenticalSingleShard) {
  serve::ServerConfig config = base_config();
  config.shards = 1;
  config.duration_s = 3;
  const auto trace = serve::record_trace(config);
  const BothRuns r = run_both(config, trace);
  EXPECT_EQ(r.service_csv, r.replay_csv);
}

TEST(AdmissionService, ConnectionSplitDoesNotChangeTelemetry) {
  // The determinism contract is about global arrival order, not which
  // connection carried a request: striping the trace across many conn ids
  // must not move a single byte.
  const serve::ServerConfig config = base_config();
  const auto trace = serve::record_trace(config);
  const BothRuns one = run_both(config, trace);

  AdmissionService striped(config, 1 << 20, 64);
  std::uint64_t conn = 0;
  for (const serve::StampedRequest& r : trace)
    ASSERT_EQ(striped.submit(1 + (conn++ % 7), r),
              AdmissionService::Submit::kAccepted);
  striped.drain();
  EXPECT_EQ(telemetry_csv(striped.result()), one.replay_csv);
}

TEST(AdmissionService, EveryRequestGetsExactlyOneDecision) {
  const serve::ServerConfig config = base_config();
  const auto trace = serve::record_trace(config);

  AdmissionService service(config, 1 << 20, 64);
  std::vector<std::uint64_t> decided_ids;
  AdmissionService::Callbacks cb;
  cb.on_decision = [&](std::uint64_t conn, const cac::AdmissionRequest& req,
                       const cac::AdmissionDecision&) {
    EXPECT_EQ(conn, 9u);
    decided_ids.push_back(req.id);
  };
  cb.on_dropped = [&](std::uint64_t, std::uint64_t) {
    FAIL() << "nothing should shed below the cap";
  };
  service.set_callbacks(std::move(cb));
  for (const serve::StampedRequest& r : trace)
    ASSERT_EQ(service.submit(9, r), AdmissionService::Submit::kAccepted);
  service.drain();

  ASSERT_EQ(decided_ids.size(), trace.size());
  EXPECT_EQ(service.decided(), trace.size());
  EXPECT_EQ(service.submitted(), trace.size());
  EXPECT_EQ(service.shed_total(), 0u);
  EXPECT_EQ(service.pending(), 0u);
}

serve::StampedRequest request_at(double t, std::uint64_t id) {
  serve::StampedRequest r;
  r.req.now = t;
  r.req.id = id;
  r.req.bandwidth = 1.0;
  r.req.speed_kmh = 30.0;
  r.req.angle_deg = 10.0;
  r.req.distance_m = 100.0;
  r.req.mobile.position.x = 10.0;
  r.req.mobile.position.y = 10.0;
  r.req.mobile.heading_deg = 0.0;
  r.req.mobile.speed_kmh = 30.0;
  r.holding_s = 60.0;
  return r;
}

serve::ServerConfig tiny_config(int batch_max) {
  serve::ServerConfig config = base_config();
  config.shards = 1;
  config.batch_window_s = 1.0;
  config.batch_max = batch_max;
  return config;
}

TEST(AdmissionService, RejectsArrivalsBelowTheWatermark) {
  AdmissionService service(tiny_config(128), 1 << 20, 16);
  EXPECT_EQ(service.submit(1, request_at(5.0, 1)),
            AdmissionService::Submit::kAccepted);
  EXPECT_EQ(service.submit(1, request_at(4.999, 2)),
            AdmissionService::Submit::kReordered);
  EXPECT_EQ(service.submit(1, request_at(5.0, 3)),
            AdmissionService::Submit::kAccepted);  // equal is fine
  EXPECT_EQ(service.watermark(), 5.0);
  EXPECT_EQ(service.submitted(), 2u);
}

TEST(AdmissionService, RejectsArrivalsBeyondTheSkewHorizon) {
  // One frame far in the future must not finalize quintillions of empty
  // seconds inline: it is refused, enqueues nothing and moves no state.
  AdmissionService service(tiny_config(128), 1 << 20, 16,
                           /*max_skew_s=*/10.0);
  EXPECT_EQ(service.submit(1, request_at(9e18, 1)),
            AdmissionService::Submit::kHorizon);
  EXPECT_EQ(service.submit(1, request_at(10.5, 2)),
            AdmissionService::Submit::kHorizon);  // virgin watermark is 0
  EXPECT_EQ(service.submitted(), 0u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_TRUE(service.telemetry().empty());
  EXPECT_EQ(service.watermark(), -1.0);

  // At the horizon is fine, and the horizon slides with the watermark.
  EXPECT_EQ(service.submit(1, request_at(10.0, 3)),
            AdmissionService::Submit::kAccepted);
  EXPECT_EQ(service.submit(1, request_at(20.0, 4)),
            AdmissionService::Submit::kAccepted);
  EXPECT_EQ(service.submit(1, request_at(30.5, 5)),
            AdmissionService::Submit::kHorizon);
  EXPECT_EQ(service.watermark(), 20.0);
  EXPECT_EQ(service.submitted(), 2u);

  service.drain();
  EXPECT_EQ(service.telemetry().size(), 21u);  // seconds 0..20
}

TEST(AdmissionService, DuplicateInFlightIdDemotesInsteadOfThrowing) {
  // Connection ids are client-controlled on the socket path: a second
  // admitted request with an id still holding bandwidth on the same shard
  // must come back not-admitted, never trip allocate()'s precondition.
  AdmissionService service(tiny_config(/*batch_max=*/1), 1 << 20, 16);
  int responses = 0;
  int admitted = 0;
  AdmissionService::Callbacks cb;
  cb.on_decision = [&](std::uint64_t, const cac::AdmissionRequest&,
                       const cac::AdmissionDecision& d) {
    ++responses;
    if (d.admitted) ++admitted;
  };
  service.set_callbacks(std::move(cb));

  serve::StampedRequest first = request_at(0.1, 77);
  first.holding_s = 60.0;  // still held when the duplicate arrives
  serve::StampedRequest dup = request_at(0.2, 77);
  ASSERT_EQ(service.submit(1, first), AdmissionService::Submit::kAccepted);
  ASSERT_EQ(service.submit(2, dup), AdmissionService::Submit::kAccepted);
  service.drain();

  EXPECT_EQ(responses, 2);
  EXPECT_LE(admitted, 1);  // the duplicate can never hold bandwidth twice
}

TEST(AdmissionService, ShedsOldestAtThePendingCap) {
  // window = 1 s and all arrivals inside [0, 1): nothing closes a batch by
  // time, and with two shards neither reaches batch_max before the global
  // cap bites — the cap is the only relief valve.
  serve::ServerConfig config = tiny_config(300);
  config.shards = 2;
  AdmissionService service(config, /*pending_cap=*/512, 16);
  std::vector<std::uint64_t> dropped;
  AdmissionService::Callbacks cb;
  cb.on_dropped = [&](std::uint64_t conn, std::uint64_t id) {
    EXPECT_EQ(conn, 3u);
    dropped.push_back(id);
  };
  service.set_callbacks(std::move(cb));

  for (int i = 0; i < 515; ++i)
    ASSERT_EQ(service.submit(3, request_at(0.0009 * i, 1000 + i)),
              AdmissionService::Submit::kAccepted);

  EXPECT_EQ(service.pending(), 512u);
  EXPECT_EQ(service.shed_total(), 3u);
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_EQ(dropped[0], 1000u);  // oldest first
  EXPECT_EQ(dropped[1], 1001u);
  EXPECT_EQ(dropped[2], 1002u);
}

TEST(AdmissionService, FlushDecidesWithoutSealingTheSecond) {
  AdmissionService service(tiny_config(128), 1 << 20, 16);
  int decisions = 0;
  AdmissionService::Callbacks cb;
  cb.on_decision = [&](std::uint64_t, const cac::AdmissionRequest&,
                       const cac::AdmissionDecision&) { ++decisions; };
  service.set_callbacks(std::move(cb));

  ASSERT_EQ(service.submit(1, request_at(0.2, 1)),
            AdmissionService::Submit::kAccepted);
  ASSERT_EQ(service.submit(1, request_at(0.3, 2)),
            AdmissionService::Submit::kAccepted);
  EXPECT_EQ(decisions, 0);

  service.flush_open_batches();
  EXPECT_EQ(decisions, 2);
  EXPECT_TRUE(service.telemetry().empty());  // second 0 still open

  // The second keeps accumulating after the flush and seals on drain.
  ASSERT_EQ(service.submit(1, request_at(0.4, 3)),
            AdmissionService::Submit::kAccepted);
  service.drain();
  EXPECT_EQ(decisions, 3);
  ASSERT_EQ(service.telemetry().size(), 1u);
  EXPECT_EQ(service.telemetry()[0].decisions, 3);
}

TEST(AdmissionService, DrainSealsThroughTheWatermarkSecond) {
  AdmissionService service(tiny_config(128), 1 << 20, 16);
  ASSERT_EQ(service.submit(1, request_at(0.5, 1)),
            AdmissionService::Submit::kAccepted);
  ASSERT_EQ(service.submit(1, request_at(2.5, 2)),
            AdmissionService::Submit::kAccepted);
  service.drain();
  // Seconds 0, 1 (empty) and 2 all have rows, like a 3 s replay would.
  ASSERT_EQ(service.telemetry().size(), 3u);
  EXPECT_EQ(service.telemetry()[0].window, 0);
  EXPECT_EQ(service.telemetry()[1].window, 1);
  EXPECT_EQ(service.telemetry()[1].decisions, 0);
  EXPECT_EQ(service.telemetry()[2].window, 2);
  EXPECT_TRUE(service.drained());

  // Idempotent, and everything after it is refused.
  service.drain();
  ASSERT_EQ(service.telemetry().size(), 3u);
  EXPECT_EQ(service.submit(1, request_at(99.0, 3)),
            AdmissionService::Submit::kReordered);
}

TEST(AdmissionService, DrainOnVirginServiceIsANoOp) {
  AdmissionService service(tiny_config(128), 1 << 20, 16);
  service.drain();
  EXPECT_TRUE(service.telemetry().empty());
  EXPECT_TRUE(service.drained());
}

TEST(AdmissionService, SecondHookFiresPerSealedSecond) {
  AdmissionService service(tiny_config(128), 1 << 20, 16);
  std::vector<std::int64_t> seconds;
  service.set_second_hook(
      [&](std::int64_t sec, const serve::TelemetryRow& row) {
        EXPECT_EQ(row.window, sec);
        seconds.push_back(sec);
      });
  ASSERT_EQ(service.submit(1, request_at(0.1, 1)),
            AdmissionService::Submit::kAccepted);
  ASSERT_EQ(service.submit(1, request_at(3.1, 2)),
            AdmissionService::Submit::kAccepted);
  // Crossing into second 3 sealed 0..2; drain seals 3.
  EXPECT_EQ(seconds, (std::vector<std::int64_t>{0, 1, 2}));
  service.drain();
  EXPECT_EQ(seconds, (std::vector<std::int64_t>{0, 1, 2, 3}));
}

TEST(AdmissionService, PendingCapMustCoverABatch) {
  EXPECT_THROW(AdmissionService(tiny_config(256), /*pending_cap=*/8, 16),
               ConfigError);
}

}  // namespace
}  // namespace facsp::net
