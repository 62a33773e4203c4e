// One immutable FLC1/FLC2 pair per process, shared by every fuzzy policy.
//
// cac::shared_flc1()/shared_flc2() build the paper's controllers on first
// use and hand the same shared_ptr<const FuzzyController> to every
// FACS-P and FACS-PR policy (FACS shares FLC2); each policy keeps only its
// own inference scratch.  These tests pin that the pair really is shared
// (across factories, registry lookups and policy kinds), that the factory's
// priority weights reach the policy, and that policies on several threads
// may evaluate the pair at once (the TSan CI job runs this suite).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cac/facs.h"
#include "cac/facs_flc.h"
#include "cac/facs_p.h"
#include "cac/facs_pr.h"
#include "cac/policy.h"
#include "cellular/basestation.h"
#include "cellular/network.h"
#include "core/experiment.h"
#include "sim/rng.h"

namespace facsp::cac {
namespace {

using cellular::BaseStation;
using cellular::ServiceClass;

constexpr std::uint64_t kSeed = 20261017;

AdmissionRequest random_request(sim::RandomStream& rng, std::uint64_t id) {
  AdmissionRequest req;
  req.id = id;
  req.service = static_cast<ServiceClass>(rng.uniform_int(0, 2));
  req.bandwidth = cellular::service_bandwidth(req.service);
  req.kind = rng.bernoulli(0.3) ? cellular::RequestKind::kHandoff
                                : cellular::RequestKind::kNew;
  req.priority = static_cast<cellular::UserPriority>(rng.uniform_int(0, 2));
  req.speed_kmh = rng.uniform(0.0, 120.0);
  req.angle_deg = rng.uniform(-180.0, 180.0);
  return req;
}

/// Admits a seeded number of random calls so Cs varies from batch to batch.
void fill(BaseStation& bs, AdmissionPolicy& policy, sim::RandomStream& rng,
          std::uint64_t& next_id) {
  const int calls = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < calls; ++i)
    if (!admit(policy, bs, random_request(rng, next_id++))) break;
}

bool bitwise_equal(const AdmissionDecision& a, const AdmissionDecision& b) {
  return std::bit_cast<std::uint64_t>(a.score) ==
             std::bit_cast<std::uint64_t>(b.score) &&
         a.verdict == b.verdict && a.admitted == b.admitted;
}

struct Comparison {
  std::size_t differences = 0;  ///< decisions of `a` and `b` that differ
  std::size_t admitted = 0;     ///< decisions of `a` that admit
  std::size_t decisions = 0;    ///< decisions of `a` in all
};

/// Decides 10k seeded requests with `a` and `b`, one by one and in batches
/// of 50 against a station refilled to a seeded occupancy per batch.
Comparison compare(AdmissionPolicy& a, AdmissionPolicy& b) {
  constexpr std::size_t kRows = 10000;
  constexpr std::size_t kBatch = 50;
  sim::RandomStream rng(sim::hash_seed(kSeed, "compare"));
  std::vector<AdmissionRequest> reqs(kBatch);
  std::vector<AdmissionDecision> out_a(kBatch), out_b(kBatch);
  std::uint64_t next_id = 1;
  Comparison c;
  for (std::size_t done = 0; done < kRows; done += kBatch) {
    BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
    fill(bs, a, rng, next_id);
    for (AdmissionRequest& req : reqs) req = random_request(rng, next_id++);
    for (const AdmissionRequest& req : reqs) {
      const AdmissionDecision d = a.decide(req, bs);
      c.differences += !bitwise_equal(d, b.decide(req, bs));
      c.admitted += d.admitted;
      ++c.decisions;
    }
    a.decide_batch(reqs, bs, out_a);
    b.decide_batch(reqs, bs, out_b);
    for (std::size_t i = 0; i < kBatch; ++i) {
      c.differences += !bitwise_equal(out_a[i], out_b[i]);
      c.admitted += out_a[i].admitted;
      ++c.decisions;
    }
  }
  return c;
}

struct SharedControllers : ::testing::Test {
  const cellular::CellularNetwork network{0, 500.0, 40.0};
  sim::RngFactory rng{kSeed};

  std::unique_ptr<AdmissionPolicy> make(const core::PolicyFactory& factory) {
    return factory(network, rng);
  }
};

template <typename Policy>
void expect_same_pair(const AdmissionPolicy& a, const AdmissionPolicy& b) {
  const auto* pa = dynamic_cast<const Policy*>(&a);
  const auto* pb = dynamic_cast<const Policy*>(&b);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_NE(pa, pb);
  EXPECT_EQ(&pa->flc1(), &pb->flc1());
  EXPECT_EQ(&pa->flc2(), &pb->flc2());
}

TEST_F(SharedControllers, EveryPolicyInTheProcessSharesOnePair) {
  EXPECT_EQ(shared_flc1(), shared_flc1());
  EXPECT_EQ(shared_flc2(), shared_flc2());

  const core::PolicyFactory facs_p = core::make_facs_p_factory();
  expect_same_pair<FacsPPolicy>(*make(facs_p), *make(facs_p));
  const core::PolicyFactory facs_pr = core::make_facs_pr_factory();
  expect_same_pair<FacsPrPolicy>(*make(facs_pr), *make(facs_pr));

  // Two factories, even with different weights, still share the pair.
  const auto a = make(facs_p);
  const auto b = make(core::make_facs_p_factory({1.5, 1.0, 1.2}));
  expect_same_pair<FacsPPolicy>(*a, *b);
  EXPECT_EQ(&dynamic_cast<const FacsPPolicy&>(*a).flc1(), shared_flc1().get());

  // FACS shares FLC2 and builds only its radius-dependent FLC1-D.
  const auto facs = make(core::make_facs_factory());
  const auto& f = dynamic_cast<const FacsPolicy&>(*facs);
  EXPECT_EQ(&f.flc2(), shared_flc2().get());
  EXPECT_NE(&f.flc1(), shared_flc1().get());
}

TEST_F(SharedControllers, RegistryLookupsShareOnePair) {
  for (const std::string name : {"facs-p", "facs-pr"}) {
    SCOPED_TRACE(name);
    // Each policy comes from its own lookup, the way every ShardCore and
    // sweep resolves its policy name.
    const auto a = make(core::policy_factory_by_name(name));
    const auto b = make(core::policy_factory_by_name(name));
    EXPECT_EQ(&core::policy_factory_by_name(name),
              &core::policy_factory_by_name(name));
    if (name == "facs-p")
      expect_same_pair<FacsPPolicy>(*a, *b);
    else
      expect_same_pair<FacsPrPolicy>(*a, *b);
  }
}

TEST_F(SharedControllers, FactoryWeightsReachThePolicy) {
  const PriorityWeights weights{1.5, 1.0, 1.2};  // not the default
  const auto from_factory = make(core::make_facs_p_factory(weights));
  FacsPPolicy direct(weights);
  Comparison c = compare(*from_factory, direct);
  EXPECT_EQ(c.differences, 0u);
  EXPECT_GT(c.admitted, 0u);
  EXPECT_LT(c.admitted, c.decisions);

  // ... and change decisions: the default weights decide differently.
  FacsPPolicy plain;
  c = compare(*from_factory, plain);
  EXPECT_GT(c.differences, 0u);
}

TEST_F(SharedControllers, ConcurrentBatchesOnOnePairMatchASerialRun) {
  constexpr int kThreads = 4;
  constexpr std::size_t kStations = 8;
  constexpr std::size_t kBatch = 64;
  constexpr int kRounds = 4;

  for (const std::string name : {"facs-p", "facs-pr"}) {
    SCOPED_TRACE(name);
    const core::PolicyFactory& factory = core::policy_factory_by_name(name);

    // Read-only inputs every thread shares: stations at seeded occupancies
    // and one batch of requests per station.
    sim::RandomStream rng(sim::hash_seed(kSeed, "threads"));
    std::uint64_t next_id = 1;
    std::vector<BaseStation> stations;
    stations.reserve(kStations);
    std::vector<std::vector<AdmissionRequest>> batches(kStations);
    {
      sim::RngFactory policy_rng(kSeed);
      const auto filler = factory(network, policy_rng);
      for (std::size_t s = 0; s < kStations; ++s) {
        stations.emplace_back(0, cellular::HexCoord{0, 0},
                              cellular::Point{0.0, 0.0}, 40.0);
        fill(stations.back(), *filler, rng, next_id);
        for (std::size_t i = 0; i < kBatch; ++i)
          batches[s].push_back(random_request(rng, next_id++));
      }
    }

    const auto run = [&](std::vector<AdmissionDecision>& out) {
      sim::RngFactory policy_rng(kSeed);
      const auto policy = factory(network, policy_rng);
      out.assign(kStations * kBatch * kRounds, AdmissionDecision{});
      std::size_t at = 0;
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t s = 0; s < kStations; ++s, at += kBatch)
          policy->decide_batch(
              batches[s], stations[s],
              std::span<AdmissionDecision>(out).subspan(at, kBatch));
    };

    std::vector<AdmissionDecision> serial;
    run(serial);

    std::vector<std::vector<AdmissionDecision>> parallel(kThreads);
    {
      std::vector<std::thread> workers;
      for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&run, &parallel, t] { run(parallel[t]); });
      for (std::thread& w : workers) w.join();
    }

    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(parallel[t].size(), serial.size());
      std::size_t differences = 0;
      for (std::size_t i = 0; i < serial.size(); ++i)
        differences += !bitwise_equal(parallel[t][i], serial[i]);
      EXPECT_EQ(differences, 0u) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace facsp::cac
