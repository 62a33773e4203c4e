// Session driver: executes one replication of the paper's experiment —
// N requesting connections arriving in the centre cell, admission control,
// call holding, mobility, handoff between cells, and metric collection.
//
// The driver can run a whole replication in one call (run()) or be driven
// incrementally (begin() + advance_until() + admit_inbound()) by the
// multi-cell engine (core/multicell.h), which shards one driver per
// super-grid cell and exchanges inter-cell handovers between them at epoch
// boundaries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cac/policy.h"
#include "cellular/metrics.h"
#include "cellular/network.h"
#include "cellular/traffic.h"
#include "core/scenario.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace facsp::core {

/// Outcome of one replication.
struct RunResult {
  cellular::MetricsCollector metrics;
  double center_utilization = 0.0;  ///< time-averaged, centre cell
  sim::SimTime duration_s = 0.0;    ///< simulated time until the run drained
  std::uint64_t events = 0;         ///< DES events fired
};

/// Builds a fresh policy for one run.  The factory receives the run's
/// network (SCC needs the geometry) and a per-run RNG factory (randomised
/// policies draw their own streams).
///
/// Thread-safety contract: SweepRunner (core/sweep.h) invokes the factory
/// from worker threads, once per (N, replication) cell, possibly concurrently.
/// Factories must therefore be safe to call concurrently: capture
/// configuration by value, and capture shared state only when it is
/// immutable — the shared_ptr<const FuzzyController> pair that the FACS-P
/// and FACS-PR factories build once and hand to every policy they make.
/// Never close over mutable shared state; each call builds a fresh policy
/// object with its own mutable state (e.g. its inference scratch).  The
/// policy *instances* a factory returns are used by one worker only.
using PolicyFactory = std::function<std::unique_ptr<cac::AdmissionPolicy>(
    const cellular::CellularNetwork& network, sim::RngFactory& rng)>;

/// Drives one simulation run.  Owns the network, simulator, per-run random
/// streams and the admission policy (built from the factory once the
/// network exists, so it starts the run empty).
class SessionDriver {
 public:
  /// `replication` seeds the run's random streams (common random numbers:
  /// the same (scenario.seed, replication) pair generates the same workload
  /// for every policy).  The policy's RngFactory is rooted at
  /// hash_seed(scenario.seed, "policy", replication).  `id_offset` shifts
  /// every generated connection id — the multi-cell engine gives each shard
  /// a disjoint id namespace so sessions migrating between shards can never
  /// collide (0 keeps the historical single-world ids).
  SessionDriver(const ScenarioConfig& scenario, const PolicyFactory& factory,
                std::uint64_t replication, cellular::ConnectionId id_offset = 0);

  /// Simulate `n_requests` new-call requests and run until every admitted
  /// call completed, dropped, or left the network (or the horizon hit).
  /// Equivalent to begin(n_requests) + advance_until(horizon) + result().
  RunResult run(int n_requests);

  // --- incremental interface (multi-cell engine) ---------------------------

  /// An inter-cell handover.  Leaving a driver's service area, `state` is
  /// the position just outside the disc and `when` the departure time; the
  /// multi-cell engine then maps `state` into the destination's frame and
  /// sets `when` to the barrier time, and the same record arrives there.
  struct Handover {
    cellular::Connection conn;
    cellular::MobileState state;
    sim::SimTime when = 0.0;
    sim::SimTime remaining_holding_s = 0.0;
    bool measured = true;
  };

  /// When a departure sink is installed a session leaving this driver's
  /// service area releases its resources here and is handed to the sink as
  /// a Handover (the inter-cell layer decides its fate); without a sink the
  /// call simply leaves the modelled area as a completion.
  using DepartureSink = std::function<void(Handover)>;
  void set_departure_sink(DepartureSink sink) {
    departure_sink_ = std::move(sink);
  }

  /// Schedule the replication's arrivals and start the utilization meters.
  /// First half of run(); must be called exactly once before advance_until.
  void begin(int n_requests);

  /// Fire events with timestamp <= t.  Returns the number fired.
  std::uint64_t advance_until(sim::SimTime t);

  /// True when no events remain (the shard drained).
  bool idle() const noexcept { return !sim_.has_pending(); }

  /// Timestamp of the shard's earliest pending event, +infinity when
  /// idle().  The multi-cell engine's event-driven scheduler reads this to
  /// decide which shards need a drain this epoch — a shard whose next event
  /// lies beyond the epoch end can be skipped without touching it.
  sim::SimTime next_event_time() const;

  /// Snapshot of the run's metrics so far (final when idle()).
  RunResult result() const;

  /// Admit a barrier's inbound handovers, in inbox order: one handoff
  /// request per arrival (one direction-predictor draw each), ONE
  /// decide_batch call against the centre BS, then cac::admit per admitted
  /// request — a burst decided on one load snapshot can over-admit, and
  /// what no longer fits is dropped.  Records each attempt (and drop) of a
  /// measured call and starts the admitted sessions at their `when`.
  /// Returns the number admitted.
  std::size_t admit_inbound(std::span<const Handover> inbox);

  /// Mutable metrics access for the inter-cell layer (left-world
  /// completions are attributed per cell).
  cellular::MetricsCollector& metrics() noexcept { return metrics_; }

  /// Currently active (admitted, not yet finished) sessions in this world.
  std::size_t session_count() const noexcept { return sessions_.size(); }

  const cellular::CellularNetwork& network() const noexcept { return *network_; }

 private:
  struct Session {
    cellular::Connection conn;
    cellular::MobileState state;
    cellular::BaseStation* serving = nullptr;
    bool measured = false;  ///< true when the call originated in the centre
    sim::EventHandle completion{};
    sim::EventHandle next_move{};
  };

  void handle_arrival(const cellular::CallRequest& req, bool measured);
  /// Activate an admitted session at `start_time`: schedule its completion
  /// (start_time + holding_time) and first move, then register it.
  void start_session(Session s, sim::SimTime start_time);
  void handle_completion(cellular::ConnectionId id);
  void handle_mobility(cellular::ConnectionId id);
  void do_handoff(Session& s, cellular::BaseStation& target);
  void finish(Session& s, cellular::ConnectionState final_state);
  /// Release the session's resources and erase it *without* recording a
  /// completion or drop: its fate now belongs to the inter-cell layer.
  Handover depart(Session& s);

  cac::AdmissionRequest make_request(const cellular::Connection& conn,
                                     const cellular::MobileState& state,
                                     cellular::RequestKind kind,
                                     const cellular::BaseStation& target);

  /// One request source per spawning cell: the cell's generator plus its
  /// spatial load weight (requests per run = round(weight * N)).
  struct Spawner {
    std::unique_ptr<cellular::TrafficGenerator> gen;
    double weight = 1.0;
  };

  ScenarioConfig scenario_;
  std::unique_ptr<cellular::CellularNetwork> network_;
  std::unique_ptr<cac::AdmissionPolicy> policy_;
  sim::Simulator sim_;
  sim::RngFactory rng_;
  /// One spawner per cell with positive spatial weight (just the centre
  /// under the default center-only map).  Element 0 is always the centre's.
  std::vector<Spawner> traffic_;
  std::unique_ptr<cellular::MobilityModel> mobility_;
  std::unique_ptr<cellular::DirectionPredictor> predictor_;
  cellular::MetricsCollector metrics_;
  std::unordered_map<cellular::ConnectionId, Session> sessions_;
  DepartureSink departure_sink_;
  // admit_inbound's batch buffers, reused: steady-state barriers allocate
  // nothing.
  std::vector<cac::AdmissionRequest> batch_requests_;
  std::vector<cac::AdmissionDecision> batch_decisions_;
};

}  // namespace facsp::core
