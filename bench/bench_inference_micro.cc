// Micro-benchmarks (google-benchmark): throughput of the fuzzy pipeline —
// membership evaluation, FLC1/FLC2 inference, the full two-stage admission
// decision, and one simulated replication.  The paper motivates triangular
// and trapezoidal membership functions as "suitable for real-time
// operation"; these numbers quantify that.
#include <benchmark/benchmark.h>

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
  const auto flc1 = cac::make_flc1();
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
  const auto flc2 = cac::make_flc2();
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
  const auto flc1 = cac::make_flc1();
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

void BM_Flc2EvaluateByResolution(benchmark::State& state) {
  cac::Flc2Params params;
  const auto flc2 = cac::make_flc2(
      params,
      fuzzy::Defuzzifier(fuzzy::DefuzzMethod::kCentroid,
                         static_cast<int>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(flc2->evaluate({0.4, 5.0, 17.0}));
}
BENCHMARK(BM_Flc2EvaluateByResolution)->Arg(64)->Arg(256)->Arg(1024);

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
