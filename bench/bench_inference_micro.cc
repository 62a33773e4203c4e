// Micro-benchmarks (google-benchmark): throughput of the fuzzy pipeline —
// membership evaluation, FLC1/FLC2 inference, centroid defuzzification, the
// full two-stage admission decision (one fixed input, and a seeded service
// mix at the serve batch size), and one simulated replication.  The paper motivates triangular
// and trapezoidal membership functions as "suitable for real-time
// operation"; these numbers quantify that.
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "cac/facs.h"
#include "cac/facs_p.h"
#include "cac/scc.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "sim/rng.h"

namespace {

using namespace facsp;

void BM_MembershipGrade(benchmark::State& state) {
  const auto mf = fuzzy::MembershipFunction::triangular(60.0, 60.0, 60.0);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mf.grade(x));
    x += 0.37;
    if (x > 120.0) x = 0.0;
  }
}
BENCHMARK(BM_MembershipGrade);

void BM_Flc1Evaluate(benchmark::State& state) {
  const auto flc1 = cac::shared_flc1();
  sim::RandomStream rng(1);
  std::vector<std::array<double, 3>> inputs(256);
  for (auto& in : inputs)
    in = {rng.uniform(0.0, 120.0), rng.uniform(-180.0, 180.0),
          rng.uniform(0.0, 10.0)};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& in = inputs[i++ & 255];
    benchmark::DoNotOptimize(flc1->evaluate({in[0], in[1], in[2]}));
  }
}
BENCHMARK(BM_Flc1Evaluate);

void BM_Flc2Evaluate(benchmark::State& state) {
  const auto flc2 = cac::shared_flc2();
  sim::RandomStream rng(2);
  std::vector<std::array<double, 3>> inputs(256);
  for (auto& in : inputs)
    in = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 10.0),
          rng.uniform(0.0, 40.0)};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& in = inputs[i++ & 255];
    benchmark::DoNotOptimize(flc2->evaluate({in[0], in[1], in[2]}));
  }
}
BENCHMARK(BM_Flc2Evaluate);

void BM_Flc1EvaluateBatch(benchmark::State& state) {
  const auto flc1 = cac::shared_flc1();
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  sim::RandomStream rng(1);
  std::vector<double> inputs(rows * 3);
  for (std::size_t r = 0; r < rows; ++r) {
    inputs[r * 3 + 0] = rng.uniform(0.0, 120.0);
    inputs[r * 3 + 1] = rng.uniform(-180.0, 180.0);
    inputs[r * 3 + 2] = rng.uniform(0.0, 10.0);
  }
  std::vector<double> out(rows);
  for (auto _ : state) {
    flc1->evaluate_batch(inputs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_Flc1EvaluateBatch)->Arg(256);

void BM_FacsPDecide(benchmark::State& state) {
  cac::FacsPPolicy policy;
  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  cac::AdmissionRequest req;
  req.id = 1;
  req.service = cellular::ServiceClass::kVoice;
  req.bandwidth = 5.0;
  req.speed_kmh = 60.0;
  req.angle_deg = 20.0;
  for (auto _ : state) benchmark::DoNotOptimize(policy.decide(req, bs));
}
BENCHMARK(BM_FacsPDecide);

void BM_DecisionBatch(benchmark::State& state) {
  cac::FacsPPolicy policy;
  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  sim::RandomStream rng(3);
  std::vector<cac::AdmissionRequest> reqs(rows);
  std::vector<cac::AdmissionDecision> out(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    reqs[i].id = static_cast<cellular::ConnectionId>(i + 1);
    reqs[i].service = cellular::ServiceClass::kVoice;
    reqs[i].bandwidth = 5.0;
    reqs[i].speed_kmh = rng.uniform(0.0, 120.0);
    reqs[i].angle_deg = rng.uniform(-180.0, 180.0);
  }
  for (auto _ : state) {
    policy.decide_batch(reqs, bs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_DecisionBatch)->Arg(256);

/// The serve mix: Sp U(0,120), An U(-180,180), Sr = Rq cycling 1/5/10 BU,
/// Cs U(0,40).  One row per entry of FLC1's and FLC2's inputs; FLC2's Cv
/// is FLC1's output on the same row.
struct ServeMix {
  std::vector<std::array<double, 3>> flc1_in, flc2_in;
};

ServeMix make_serve_mix(const fuzzy::FuzzyController& flc1, std::size_t rows) {
  static constexpr double kBandwidths[] = {1.0, 5.0, 10.0};
  sim::RandomStream rng(23);
  ServeMix mix;
  for (std::size_t r = 0; r < rows; ++r) {
    const double bw = kBandwidths[r % 3];
    const std::array<double, 3> in1 = {rng.uniform(0.0, 120.0),
                                       rng.uniform(-180.0, 180.0), bw};
    const double cv = flc1.evaluate({in1[0], in1[1], in1[2]});
    mix.flc1_in.push_back(in1);
    mix.flc2_in.push_back({cv, bw, rng.uniform(0.0, 40.0)});
  }
  return mix;
}

/// Centroid defuzzification alone, over output activations recorded once
/// from the serve mix (the inference stage is not timed).
void BM_DefuzzCentroid(benchmark::State& state, int stage) {
  const auto flc1 = cac::shared_flc1();
  const auto flc2 = cac::shared_flc2();
  const fuzzy::FuzzyController& flc = stage == 1 ? *flc1 : *flc2;
  const ServeMix mix = make_serve_mix(*flc1, 256);
  std::vector<std::vector<double>> activations;
  for (const auto& in : stage == 1 ? mix.flc1_in : mix.flc2_in)
    activations.push_back(flc.explain(in).activations);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flc.defuzzifier().defuzzify(
        activations[i++ & 255], flc.output()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_DefuzzCentroid, FLC1, 1);
BENCHMARK_CAPTURE(BM_DefuzzCentroid, FLC2, 2);

/// A seeded mix of service classes, request kinds and kinematics in
/// batches of `rows`, against eight cells whose loads spread Cs across its
/// universe.  Batch b is decided against cell b % kCells.
struct DecideMix {
  static constexpr std::size_t kCells = 8, kBatches = 64;
  std::vector<cellular::BaseStation> cells;
  std::vector<cac::AdmissionRequest> reqs;
};

DecideMix make_decide_mix(std::size_t rows) {
  sim::RandomStream rng(29);
  DecideMix mix;
  mix.cells.reserve(DecideMix::kCells);
  cellular::ConnectionId next_id = 1;
  for (std::size_t c = 0; c < DecideMix::kCells; ++c) {
    cellular::BaseStation& bs = mix.cells.emplace_back(
        static_cast<cellular::BaseStationId>(c), cellular::HexCoord{0, 0},
        cellular::Point{0.0, 0.0}, 40.0);
    // Fill to about 5*c BU with random classes.
    while (bs.used() + 10.0 <= 5.0 * static_cast<double>(c)) {
      cellular::Connection conn;
      conn.id = next_id++;
      conn.service = static_cast<cellular::ServiceClass>(rng.uniform_int(0, 2));
      conn.bandwidth = cellular::service_bandwidth(conn.service);
      bs.allocate(conn, 0.0, rng.bernoulli(0.3));
    }
  }
  mix.reqs.resize(rows * DecideMix::kBatches);
  for (auto& req : mix.reqs) {
    req.id = next_id++;
    req.service = static_cast<cellular::ServiceClass>(rng.uniform_int(0, 2));
    req.bandwidth = cellular::service_bandwidth(req.service);
    req.kind = rng.bernoulli(0.3) ? cellular::RequestKind::kHandoff
                                  : cellular::RequestKind::kNew;
    req.speed_kmh = rng.uniform(0.0, 120.0);
    req.angle_deg = rng.uniform(-180.0, 180.0);
  }
  return mix;
}

/// decide_batch at the serve batch size over the decide mix.
void BM_DecideBatchMix(benchmark::State& state) {
  cac::FacsPPolicy policy;
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const DecideMix mix = make_decide_mix(rows);
  std::vector<cac::AdmissionDecision> out(rows);
  std::size_t b = 0;
  for (auto _ : state) {
    const std::span<const cac::AdmissionRequest> batch(
        mix.reqs.data() + (b % DecideMix::kBatches) * rows, rows);
    policy.decide_batch(batch, mix.cells[b % DecideMix::kCells], out);
    benchmark::DoNotOptimize(out.data());
    ++b;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_DecideBatchMix)->Arg(50);

/// Scalar decide() row by row over the same decide mix and batches as
/// BM_DecideBatchMix, so scalar and batched decisions are timed on one
/// input.
void BM_FacsPDecideMix(benchmark::State& state) {
  cac::FacsPPolicy policy;
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const DecideMix mix = make_decide_mix(rows);
  std::vector<cac::AdmissionDecision> out(rows);
  std::size_t b = 0;
  for (auto _ : state) {
    const cac::AdmissionRequest* batch =
        mix.reqs.data() + (b % DecideMix::kBatches) * rows;
    const cellular::BaseStation& bs = mix.cells[b % DecideMix::kCells];
    for (std::size_t i = 0; i < rows; ++i) out[i] = policy.decide(batch[i], bs);
    benchmark::DoNotOptimize(out.data());
    ++b;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_FacsPDecideMix)->Arg(50);

void BM_SccDecide(benchmark::State& state) {
  cellular::CellularNetwork net(1, 2000.0, 40.0);
  cac::SccPolicy policy(net);
  // Populate the shadow ledger with a realistic number of actives.
  for (cellular::ConnectionId id = 1; id <= 12; ++id) {
    cac::AdmissionRequest a;
    a.id = id;
    a.bandwidth = 2.7;
    a.mobile = {{100.0 * id, 50.0 * id}, 40.0, 30.0 * id};
    policy.on_admitted(a);
  }
  cac::AdmissionRequest req;
  req.id = 99;
  req.service = cellular::ServiceClass::kVoice;
  req.bandwidth = 5.0;
  req.mobile = {{0.0, 0.0}, 60.0, 0.0};
  for (auto _ : state)
    benchmark::DoNotOptimize(policy.decide(req, net.center()));
}
BENCHMARK(BM_SccDecide);

void BM_FullReplication(benchmark::State& state) {
  const auto scenario = core::paper_scenario();
  const auto factory = core::make_facs_p_factory();
  const int n = static_cast<int>(state.range(0));
  std::uint64_t rep = 0;
  for (auto _ : state) {
    core::Experiment exp(scenario, factory);
    benchmark::DoNotOptimize(exp.run_single(n, rep++));
  }
  state.SetLabel("requests=" + std::to_string(n));
}
BENCHMARK(BM_FullReplication)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
