// decide_batch <-> decide() parity, fuzzed over every registered policy.
//
// The batch API's contract (cac/policy.h) is "as-if sequential decide()
// calls without allocation between them".  A subclass overriding
// decide_batch with a fast path — or inheriting the default after changing
// decide() (the trap noted in fuzzy_cac_base.h) — must keep verdicts
// identical to a plain decide() loop.  Two policy instances are built from
// the same factory with the same seeds (randomised policies like fgc draw
// the same stream either way), one decides request-by-request, the other in
// one batch, under fuzzed request mixes and base-station load levels.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cac/policy.h"
#include "cellular/basestation.h"
#include "cellular/network.h"
#include "core/experiment.h"
#include "sim/rng.h"

namespace facsp::cac {
namespace {

using cellular::ServiceClass;

AdmissionRequest fuzz_request(sim::RandomStream& rng, std::uint64_t id) {
  AdmissionRequest req;
  req.id = id;
  const std::size_t svc = static_cast<std::size_t>(rng.uniform_int(0, 2));
  req.service = static_cast<ServiceClass>(svc);
  req.bandwidth = cellular::service_bandwidth(req.service);
  req.kind = rng.bernoulli(0.3) ? cellular::RequestKind::kHandoff
                                : cellular::RequestKind::kNew;
  req.priority =
      static_cast<cellular::UserPriority>(rng.uniform_int(0, 2));
  req.speed_kmh = rng.uniform(0.0, 120.0);
  req.angle_deg = rng.uniform(-180.0, 180.0);
  req.distance_m = rng.uniform(0.0, 2000.0);
  req.mobile.position = {rng.uniform(-1500.0, 1500.0),
                         rng.uniform(-1500.0, 1500.0)};
  req.mobile.speed_kmh = req.speed_kmh;
  req.mobile.heading_deg = rng.uniform(-180.0, 180.0);
  req.now = rng.uniform(0.0, 3600.0);
  return req;
}

/// Fill `bs` to a fuzzed occupancy so counter-state inputs vary across
/// batches.  Admitted through cac::admit so stateful policies (SCC's
/// shadow clusters) see a consistent world.
void fuzz_load(cellular::BaseStation& bs, AdmissionPolicy& policy,
               sim::RandomStream& rng, std::uint64_t id_base) {
  const int calls = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < calls; ++i) {
    AdmissionRequest req;
    req.id = id_base + static_cast<std::uint64_t>(i);
    req.service = static_cast<ServiceClass>(rng.uniform_int(0, 2));
    req.bandwidth = cellular::service_bandwidth(req.service);
    req.kind = rng.bernoulli(0.4) ? cellular::RequestKind::kHandoff
                                  : cellular::RequestKind::kNew;
    if (!admit(policy, bs, req)) break;
  }
}

TEST(DecideBatchParity, BatchMatchesDecideLoopForEveryRegisteredPolicy) {
  constexpr std::uint64_t kSeed = 20260730;
  constexpr int kBatches = 60;
  constexpr std::size_t kMaxBatch = 24;

  const cellular::CellularNetwork network(1, 2000.0, 40.0);

  for (const std::string& name : core::policy_names()) {
    SCOPED_TRACE("policy=" + name);
    const core::PolicyFactory factory = core::policy_factory_by_name(name);

    sim::RandomStream fuzz(sim::hash_seed(kSeed, "fuzz"));
    std::uint64_t next_id = 1;
    for (int b = 0; b < kBatches; ++b) {
      SCOPED_TRACE("batch=" + std::to_string(b));
      // Fresh identically seeded twins per batch (randomised policies draw
      // the same streams) and a fresh station, fuzzed to a random
      // occupancy, mirrored into both policies identically.
      sim::RngFactory rng_a(kSeed), rng_b(kSeed);
      const std::unique_ptr<AdmissionPolicy> loop_policy =
          factory(network, rng_a);
      const std::unique_ptr<AdmissionPolicy> batch_policy =
          factory(network, rng_b);
      cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
      {
        // One fuzz stream drives both mirrors: replay the same draws.
        sim::RandomStream load_rng(sim::hash_seed(kSeed, "load",
                                                  static_cast<std::uint64_t>(b)));
        fuzz_load(bs, *loop_policy, load_rng, 1000000 + next_id);
      }
      {
        sim::RandomStream load_rng(sim::hash_seed(kSeed, "load",
                                                  static_cast<std::uint64_t>(b)));
        cellular::BaseStation mirror(0, {0, 0}, {0.0, 0.0}, 40.0);
        fuzz_load(mirror, *batch_policy, load_rng, 1000000 + next_id);
      }

      const std::size_t count =
          1 + static_cast<std::size_t>(fuzz.uniform_int(
                  0, static_cast<std::int64_t>(kMaxBatch - 1)));
      std::vector<AdmissionRequest> reqs;
      reqs.reserve(count);
      for (std::size_t i = 0; i < count; ++i)
        reqs.push_back(fuzz_request(fuzz, next_id++));

      std::vector<AdmissionDecision> loop_out(count);
      for (std::size_t i = 0; i < count; ++i)
        loop_out[i] = loop_policy->decide(reqs[i], bs);

      std::vector<AdmissionDecision> batch_out(count);
      batch_policy->decide_batch(reqs, bs, batch_out);

      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(loop_out[i].admitted, batch_out[i].admitted)
            << "request " << i;
        ASSERT_EQ(loop_out[i].score, batch_out[i].score) << "request " << i;
        ASSERT_EQ(loop_out[i].verdict, batch_out[i].verdict)
            << "request " << i;
      }
    }
  }
}

}  // namespace
}  // namespace facsp::cac
