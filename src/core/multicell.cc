#include "core/multicell.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/expects.h"
#include "common/math_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"

namespace facsp::core {

namespace {

/// Registered once, on the first epoch that runs with metrics enabled;
/// afterwards every epoch just dereferences cached references.
struct EngineMetrics {
  obs::Counter& epochs;
  obs::Counter& epochs_skipped;
  obs::Counter& shards_drained;
  obs::Counter& routed;
  obs::Counter& left_world;
  obs::Counter& admitted;
  obs::Counter& dropped;
  obs::Histogram& drain_ns;
  obs::Histogram& barrier_ns;
  obs::Gauge& sessions_resident;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::Registry::instance().counter("engine.epochs"),
        obs::Registry::instance().counter("engine.epochs_skipped"),
        obs::Registry::instance().counter("engine.shards_drained"),
        obs::Registry::instance().counter("engine.handover.routed"),
        obs::Registry::instance().counter("engine.handover.left_world"),
        obs::Registry::instance().counter("engine.handover.admitted"),
        obs::Registry::instance().counter("engine.handover.dropped"),
        obs::Registry::instance().histogram("engine.drain_ns"),
        obs::Registry::instance().histogram("engine.barrier_ns"),
        obs::Registry::instance().gauge("engine.sessions_resident"),
    };
    return m;
  }
};

/// Disjoint per-shard connection-id namespaces: migrating sessions keep
/// their origin ids, so no two shards may ever mint the same one.  2^40
/// leaves every shard the full legacy id space (spawner strides are 2^24).
constexpr cellular::ConnectionId kCellIdOffset = 1ull << 40;

/// Super-grid coordinates: centre-out ring spiral (the first `cells`
/// coordinates of it), so cell 0 is always the centre and cells 1..6 its
/// ring-1 neighbours.
std::vector<cellular::HexCoord> spiral_coords(int cells) {
  std::vector<cellular::HexCoord> out;
  out.reserve(static_cast<std::size_t>(cells));
  for (int radius = 0; static_cast<int>(out.size()) < cells; ++radius)
    for (const cellular::HexCoord& c :
         cellular::hex_ring(cellular::HexCoord{0, 0}, radius)) {
      out.push_back(c);
      if (static_cast<int>(out.size()) == cells) break;
    }
  return out;
}

}  // namespace

MultiCellEngine::MultiCellEngine(const ScenarioConfig& scenario,
                                 const PolicyFactory& factory,
                                 std::uint64_t replication)
    : scenario_(scenario) {
  scenario_.validate();

  coords_ = spiral_coords(scenario_.multicell.cells);
  index_.reserve(coords_.size());
  for (std::size_t k = 0; k < coords_.size(); ++k)
    index_.emplace(coords_[k], static_cast<int>(k));

  // World angle of each hex neighbour direction (fixed E, NE, NW, W, SW, SE
  // order).  Computed from the layout geometry, not hardcoded, so a change
  // of hex orientation cannot desynchronise routing from the grid.
  const cellular::HexLayout unit(1.0);
  const auto dirs = cellular::hex_neighbors(cellular::HexCoord{0, 0});
  for (std::size_t d = 0; d < dirs.size(); ++d) {
    dir_[d] = dirs[d];
    dir_angle_[d] = cellular::heading_deg(unit.center(cellular::HexCoord{0, 0}),
                                          unit.center(dirs[d]));
  }

  shards_.reserve(coords_.size());
  for (std::size_t k = 0; k < coords_.size(); ++k) {
    // Cell 0 keeps the legacy seed roots so a 1-cell engine run *is* the
    // historical single-world run, bit for bit; every other shard gets its
    // own independent family under the "cell" component.
    const std::uint64_t cell_seed =
        k == 0 ? scenario_.seed
               : sim::hash_seed(scenario_.seed, "cell",
                                static_cast<std::uint64_t>(k));
    ScenarioConfig cell_scenario = scenario_;
    cell_scenario.seed = cell_seed;

    Shard sh;
    sh.driver = std::make_unique<SessionDriver>(
        cell_scenario, factory, replication,
        kCellIdOffset * static_cast<cellular::ConnectionId>(k));
    shards_.push_back(std::move(sh));
  }
}

int MultiCellEngine::route_target(int cell, double heading_deg) const {
  std::size_t best = 0;
  double best_dist = angle_distance_deg(heading_deg, dir_angle_[0]);
  for (std::size_t d = 1; d < 6; ++d) {
    const double dist = angle_distance_deg(heading_deg, dir_angle_[d]);
    if (dist < best_dist) {
      best = d;
      best_dist = dist;
    }
  }
  const cellular::HexCoord& dir = dir_[best];
  const cellular::HexCoord& from = coords_[static_cast<std::size_t>(cell)];
  const auto it = index_.find(cellular::HexCoord{from.q + dir.q,
                                                 from.r + dir.r});
  return it == index_.end() ? -1 : it->second;
}

cellular::MobileState MultiCellEngine::entry_state(
    const SessionDriver::Handover& dep) const {
  // Re-materialise in the destination frame: entering its centre cell from
  // the side the user came from — entry_fraction * cell_radius behind the
  // centre BS along the (unchanged) travel direction.  entry_fraction stays
  // below the hex inradius ratio, so the point is always inside the cell.
  cellular::MobileState s = dep.state;
  const double h = deg_to_rad(s.heading_deg);
  const double r = scenario_.cell_radius_m * scenario_.multicell.entry_fraction;
  s.position = cellular::Point{-r * std::cos(h), -r * std::sin(h)};
  return s;
}

void MultiCellEngine::route_epoch(sim::SimTime t_end) {
  // stats_ is a member so the per-barrier buffers (routes in particular)
  // persist: clear() keeps capacity, and steady-state barriers allocate
  // nothing even with an observer attached (bench_multicell audits this).
  EpochStats& es = stats_;
  es.t_end = t_end;
  es.departures = es.delivered = es.left_world = 0;
  es.admitted = es.dropped = 0;
  es.routes.clear();
  es.active_sessions = 0;
  es.used_bu = 0.0;

  // Inbox invariant: every inbox is empty here — phase 2 clears each one it
  // fills, right after processing it.  Only drained shards can hold outbox
  // records, so iterating the (ascending) drain list visits exactly the
  // shards the historical all-cells sweep routed, in the same order.
  touched_.clear();

  // Phase 1 — route departures, in fixed (cell, drain-event) order.
  for (const int k : drain_) {
    Shard& src = shards_[static_cast<std::size_t>(k)];
    for (SessionDriver::Handover& dep : src.outbox) {
      ++es.departures;
      const int dst = route_target(k, dep.state.heading_deg);
      if (observer_) es.routes.emplace_back(k, dst);
      if (dst < 0) {
        // Off the super-grid edge: the call leaves the modelled area as a
        // completion, just like the single-world driver's semantics.
        ++es.left_world;
        ++src.left_world;
        if (dep.measured)
          src.driver->metrics().record_completion(dep.conn.service);
        continue;
      }
      ++es.delivered;
      ++src.handoffs_out;
      Shard& dsh = shards_[static_cast<std::size_t>(dst)];
      ++dsh.handoffs_in;
      if (dsh.inbox.empty()) touched_.push_back(dst);  // first touch
      dep.state = entry_state(dep);
      dep.when = t_end;
      dsh.inbox.push_back(std::move(dep));
    }
    src.outbox.clear();
  }
  std::sort(touched_.begin(), touched_.end());

  // Phase 2 — batched admission: every destination cell's pending inbound
  // handovers of this drain become ONE decide_batch call against its centre
  // BS (SessionDriver::admit_inbound; cac::admit re-checks capacity, so an
  // over-admitting burst degrades into drops, never negative counters).
  // Ascending cell order — the same order the historical all-cells sweep
  // processed non-empty inboxes in.
  for (const int t : touched_) {
    Shard& sh = shards_[static_cast<std::size_t>(t)];
    const std::size_t admitted = sh.driver->admit_inbound(sh.inbox);
    es.admitted += admitted;
    es.dropped += sh.inbox.size() - admitted;
    sh.inbox.clear();  // restore the invariant for the next barrier
  }

  const bool metrics_on = obs::metrics_enabled();
  if (observer_ || metrics_on) {
    for (const Shard& sh : shards_) {
      es.active_sessions += sh.driver->session_count();
      const cellular::CellularNetwork& net = sh.driver->network();
      for (std::size_t b = 0; b < net.cell_count(); ++b)
        es.used_bu += net.station(b).load().used;
    }
    if (metrics_on) {
      EngineMetrics& m = EngineMetrics::get();
      m.epochs.add(1);
      m.routed.add(es.delivered);
      m.left_world.add(es.left_world);
      m.admitted.add(es.admitted);
      m.dropped.add(es.dropped);
      m.sessions_resident.set(
          static_cast<std::int64_t>(es.active_sessions));
    }
    if (observer_) observer_(es);
  }
}

void MultiCellEngine::activate(int cell) {
  if (active_pos_[static_cast<std::size_t>(cell)] >= 0) return;
  active_pos_[static_cast<std::size_t>(cell)] =
      static_cast<int>(active_.size());
  active_.push_back(cell);
}

void MultiCellEngine::deactivate(int cell) {
  const int pos = active_pos_[static_cast<std::size_t>(cell)];
  if (pos < 0) return;
  const int last = active_.back();
  active_[static_cast<std::size_t>(pos)] = last;
  active_pos_[static_cast<std::size_t>(last)] = pos;
  active_.pop_back();
  active_pos_[static_cast<std::size_t>(cell)] = -1;
}

MultiCellResult MultiCellEngine::run(int n_requests_per_cell) {
  FACSP_EXPECTS(!started_);
  started_ = true;

  const int wc = scenario_.multicell.workload_cells;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& sh = shards_[k];
    Shard* self = &sh;  // shards_ is stable from here on
    sh.driver->set_departure_sink(
        [self](SessionDriver::Handover dep) {
          self->outbox.push_back(std::move(dep));
        });
    // workload_cells > 0 restricts fresh traffic to the first spiral cells;
    // the rest start empty (and idle) and only ever light up on inbound
    // handovers — the sparse-grid regime the event-driven scheduler exists
    // for.
    sh.driver->begin(wc > 0 && static_cast<int>(k) >= wc
                         ? 0
                         : n_requests_per_cell);
  }

  // Seed the active index: exactly the shards whose begin() scheduled work.
  active_.clear();
  active_.reserve(shards_.size());
  active_pos_.assign(shards_.size(), -1);
  drain_.reserve(shards_.size());
  touched_.reserve(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k)
    if (!shards_[k].driver->idle()) activate(static_cast<int>(k));

  // Never spawn more workers than there are shards to drain: run_single
  // builds an engine per replication, so surplus threads would be pure
  // spawn/join overhead (results are thread-count-invariant either way).
  // parallel_for additionally clamps each epoch's helper count to that
  // epoch's drain-list size, so a mostly-idle grid never wakes the full
  // pool.
  sim::ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(
      sim::ThreadPool::resolve_threads(scenario_.multicell.threads),
      shards_.size())));
  // Per-shard drain-time histograms, resolved lazily (registration takes the
  // registry mutex — engine thread only) the first time a shard drains with
  // metrics on.  Entries ride the name-sorted snapshot machinery as
  // "engine.shard_drain_ns{shard=k}".
  std::vector<obs::Histogram*> shard_hist(shards_.size(), nullptr);

  const sim::SimTime dt = scenario_.multicell.epoch_s;
  const sim::SimTime horizon = scenario_.horizon_s;
  sim::SimTime t = 0.0;
  while (t < horizon && !active_.empty()) {
    const bool metrics_on = obs::metrics_enabled();
    sim::SimTime t_end = std::min(t + dt, horizon);
    if (!force_full_drains_) {
      sim::SimTime t_next = std::numeric_limits<sim::SimTime>::infinity();
      for (const int k : active_)
        t_next = std::min(
            t_next, shards_[static_cast<std::size_t>(k)].driver
                        ->next_event_time());
      // Fast-forward over provably empty epochs, boundary by boundary: the
      // repeated `t + dt` additions retrace exactly the float sequence the
      // bulk-synchronous engine would have produced, so later boundaries —
      // and every arrival timestamp derived from them — stay bit-identical.
      std::uint64_t skipped = 0;
      while (t_next > t_end && t_end < horizon) {
        t = t_end;
        t_end = std::min(t + dt, horizon);
        ++skipped;
      }
      if (metrics_on && skipped > 0)
        EngineMetrics::get().epochs_skipped.add(skipped);
      // Earliest pending event past the horizon: nothing left can fire
      // (the historical engine idled through these epochs to the same
      // result).
      if (t_next > t_end) break;
    }

    // Drain list: active shards with an event inside this window, ascending
    // so the serial barrier routes in the historical fixed order.  Shards
    // woken mid-epoch (activated at the previous barrier with an arrival at
    // its t_end) naturally qualify here.
    drain_.clear();
    if (force_full_drains_) {
      for (std::size_t k = 0; k < shards_.size(); ++k)
        drain_.push_back(static_cast<int>(k));
    } else {
      for (const int k : active_)
        if (shards_[static_cast<std::size_t>(k)].driver->next_event_time() <=
            t_end)
          drain_.push_back(k);
      std::sort(drain_.begin(), drain_.end());
    }

    obs::Histogram* drain_hist = nullptr;
    obs::Histogram* barrier_hist = nullptr;
    if (metrics_on) {
      EngineMetrics& m = EngineMetrics::get();
      drain_hist = &m.drain_ns;
      barrier_hist = &m.barrier_ns;
      m.shards_drained.add(drain_.size());
      for (const int k : drain_) {
        obs::Histogram*& h = shard_hist[static_cast<std::size_t>(k)];
        if (h == nullptr)
          h = &obs::Registry::instance().histogram(
              obs::labeled("engine.shard_drain_ns", "shard", k));
      }
    }
    {
      FACSP_TRACE_SPAN("engine", "epoch");
      // Parallel drain: share-nothing — each shard touches only its own
      // driver/policy/outbox, so worker scheduling cannot affect results.
      pool.parallel_for(drain_.size(), [&](std::size_t i) {
        const int k = drain_[i];
        obs::ScopedSpan drain(
            "engine", "shard_drain", static_cast<std::int64_t>(k),
            drain_hist,
            drain_hist != nullptr
                ? shard_hist[static_cast<std::size_t>(k)]
                : nullptr);
        shards_[static_cast<std::size_t>(k)].driver->advance_until(t_end);
      });
      // Serial barrier: routing + batched admission in fixed order.
      obs::ScopedSpan barrier("engine", "barrier", obs::Tracer::kNoArg,
                              barrier_hist);
      route_epoch(t_end);
    }

    // Membership maintenance, on the engine thread at the barrier: drained
    // shards that ran dry leave the index; destinations the barrier just
    // handed work to (re-)enter it.  Order matters — a drained shard whose
    // only future work is an inbound admission it just received is
    // deactivated then immediately re-activated via touched_.
    for (const int k : drain_)
      if (shards_[static_cast<std::size_t>(k)].driver->idle()) deactivate(k);
    for (const int k : touched_)
      if (!shards_[static_cast<std::size_t>(k)].driver->idle()) activate(k);

    t = t_end;
  }

  MultiCellResult out;
  out.cells.reserve(shards_.size());
  RunResult agg;
  double util_sum = 0.0;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    MultiCellResult::Cell c;
    c.coord = coords_[k];
    c.run = shards_[k].driver->result();
    c.handoffs_out = shards_[k].handoffs_out;
    c.handoffs_in = shards_[k].handoffs_in;
    c.left_world = shards_[k].left_world;
    agg.metrics.merge(c.run.metrics);
    agg.duration_s = std::max(agg.duration_s, c.run.duration_s);
    agg.events += c.run.events;
    util_sum += c.run.center_utilization;
    out.cells.push_back(std::move(c));
  }
  agg.center_utilization = util_sum / static_cast<double>(shards_.size());
  out.aggregate = std::move(agg);
  return out;
}

}  // namespace facsp::core
