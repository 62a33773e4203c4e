// Steady-state allocation tests for the fuzzy fast path.
//
// A replacement global operator new/delete counts every heap allocation in
// the process; the tests warm a controller up, then assert that further
// evaluations allocate nothing.  This lives in its own binary so the counter
// never observes unrelated suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include "cac/facs_p.h"
#include "cellular/basestation.h"
#include "cellular/network.h"
#include "core/experiment.h"
#include "fuzzy/controller.h"
#include "sim/rng.h"

namespace facsp::fuzzy {
namespace {

std::size_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(ZeroAlloc, CounterObservesHeapAllocations) {
  const std::size_t before = allocations();
  auto* p = new int(7);
  EXPECT_GT(allocations(), before);
  delete p;
}

TEST(ZeroAlloc, SteadyStateInferIntoDoesNotAllocate) {
  const auto flc1 = cac::shared_flc1();
  InferenceScratch scratch;
  const double inputs[3] = {60.0, 20.0, 5.0};
  // Warm-up sizes every scratch buffer to its steady state.
  (void)flc1->evaluate_with(scratch, inputs);

  const std::size_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double in[3] = {i % 120 * 1.0, (i % 360) - 180.0, i % 10 * 1.0};
    sink += flc1->evaluate_with(scratch, in);
  }
  EXPECT_EQ(allocations(), before) << "evaluate_with allocated on a warm "
                                      "scratch (sink=" << sink << ")";
}

TEST(ZeroAlloc, SteadyStateEvaluateDoesNotAllocate) {
  const auto flc2 = cac::shared_flc2();
  (void)flc2->evaluate({0.4, 5.0, 17.0});  // warm the thread-local scratch

  const std::size_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 1000; ++i)
    sink += flc2->evaluate({i % 10 * 0.1, i % 10 * 1.0, i % 40 * 1.0});
  EXPECT_EQ(allocations(), before) << "evaluate() allocated (sink=" << sink
                                   << ")";
}

TEST(ZeroAlloc, SteadyStateEvaluateBatchDoesNotAllocate) {
  const auto flc1 = cac::shared_flc1();
  std::vector<double> inputs(64 * 3);
  std::vector<double> out(64);
  for (std::size_t r = 0; r < 64; ++r) {
    inputs[r * 3 + 0] = static_cast<double>(r % 120);
    inputs[r * 3 + 1] = static_cast<double>(r % 360) - 180.0;
    inputs[r * 3 + 2] = static_cast<double>(r % 10);
  }
  flc1->evaluate_batch(inputs, out);  // warm-up

  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) flc1->evaluate_batch(inputs, out);
  EXPECT_EQ(allocations(), before);
}

TEST(ZeroAlloc, SteadyStateSoaBatchScratchDoesNotAllocate) {
  // The explicit-scratch batched path: the structure-of-arrays lane buffers
  // (lane_inputs/lane_grades/lane_activations) must reach steady state on
  // the first batch and never touch the heap again — including for partial
  // tail blocks (rows not a multiple of kLanes).
  const auto flc2 = cac::shared_flc2();
  InferenceScratch scratch;
  std::vector<double> inputs(37 * 3);
  std::vector<double> out(37);
  for (std::size_t r = 0; r < out.size(); ++r) {
    inputs[r * 3 + 0] = static_cast<double>(r % 10) * 0.1;
    inputs[r * 3 + 1] = static_cast<double>(r % 10);
    inputs[r * 3 + 2] = static_cast<double>(r % 40);
  }
  flc2->evaluate_batch_with(scratch, inputs, out);  // warm-up

  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) flc2->evaluate_batch_with(scratch, inputs, out);
  EXPECT_EQ(allocations(), before) << "SoA batch scratch allocated when warm";
}

TEST(ZeroAlloc, SteadyStateAdmissionDecisionDoesNotAllocate) {
  cac::FacsPPolicy policy;
  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  cac::AdmissionRequest req;
  req.id = 1;
  req.service = cellular::ServiceClass::kVoice;
  req.bandwidth = 5.0;
  req.speed_kmh = 60.0;
  req.angle_deg = 20.0;
  (void)policy.decide(req, bs);  // warms the inference scratch

  const std::size_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    req.speed_kmh = static_cast<double>(i % 120);
    req.angle_deg = static_cast<double>(i % 360) - 180.0;
    (void)policy.decide(req, bs);
  }
  EXPECT_EQ(allocations(), before) << "FACS-P decide() allocated";
}

TEST(ZeroAlloc, SteadyStateDecisionBatchDoesNotAllocate) {
  cac::FacsPPolicy policy;
  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  std::vector<cac::AdmissionRequest> reqs(64);
  std::vector<cac::AdmissionDecision> out(64);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<cellular::ConnectionId>(i + 1);
    reqs[i].service = cellular::ServiceClass::kVoice;
    reqs[i].bandwidth = 5.0;
    reqs[i].speed_kmh = static_cast<double>(i % 120);
    reqs[i].angle_deg = static_cast<double>(i % 360) - 180.0;
  }
  policy.decide_batch(reqs, bs, out);  // warm-up

  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) policy.decide_batch(reqs, bs, out);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(out.size(), reqs.size());
}

TEST(ZeroAlloc, AdmissionAllocatesOnlyTheBaseStationLedgerNode) {
  // The base station is the one call ledger: admitting through cac::admit
  // costs exactly one heap node (BaseStation::held_) per call, and FACS-P
  // keeps no per-call state of its own.
  cac::FacsPPolicy policy;
  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  cac::AdmissionRequest req;
  req.service = cellular::ServiceClass::kVoice;
  req.bandwidth = 5.0;
  req.speed_kmh = 60.0;
  req.angle_deg = 20.0;
  // Warm-up: one decide/admit/release round sizes the inference scratch and
  // the ledger's bucket array.
  req.id = 1;
  (void)policy.decide(req, bs);
  ASSERT_TRUE(cac::admit(policy, bs, req));
  bs.release(req.id, 0.0);
  policy.on_released(req.id);

  constexpr std::size_t kCalls = 8;  // 8 x 5 BU fills the 40-BU cell
  std::size_t admitted = 0;
  const std::size_t before_admit = allocations();
  for (std::size_t i = 0; i < kCalls; ++i) {
    req.id = 100 + i;
    (void)policy.decide(req, bs);
    if (cac::admit(policy, bs, req)) ++admitted;
  }
  const std::size_t admit_allocs = allocations() - before_admit;

  const std::size_t before_release = allocations();
  for (std::size_t i = 0; i < kCalls; ++i) {
    bs.release(100 + i, 1.0);
    policy.on_released(100 + i);
  }
  const std::size_t release_allocs = allocations() - before_release;

  EXPECT_EQ(admitted, kCalls);
  EXPECT_EQ(admit_allocs, kCalls) << "expected one ledger node per admission";
  EXPECT_EQ(release_allocs, 0u);
}

TEST(ZeroAlloc, PolicyFromAFactoryAllocatesOnlyThePolicy) {
  // Every FACS-P or FACS-PR policy shares the process's FLC1/FLC2 pair,
  // built on first use, so once warm a factory call allocates exactly the
  // policy object.  Building a private pair per policy cost 327
  // allocations.
  const cellular::CellularNetwork network(0, 500.0, 40.0);
  sim::RngFactory rng(42);
  const core::PolicyFactory facs_p = core::make_facs_p_factory();
  const core::PolicyFactory facs_pr = core::make_facs_pr_factory();
  const struct {
    const char* label;
    const core::PolicyFactory& factory;
  } cases[] = {
      {"make_facs_p_factory", facs_p},
      {"make_facs_pr_factory", facs_pr},
      {"registry facs-p", core::policy_factory_by_name("facs-p")},
      {"registry facs-pr", core::policy_factory_by_name("facs-pr")},
  };
  for (const auto& c : cases) {
    (void)c.factory(network, rng);  // warm-up
    const std::size_t before = allocations();
    const auto policy = c.factory(network, rng);
    const std::size_t allocs = allocations() - before;
    EXPECT_EQ(allocs, 1u) << c.label;
    EXPECT_NE(policy, nullptr) << c.label;
  }
}

}  // namespace
}  // namespace facsp::fuzzy
