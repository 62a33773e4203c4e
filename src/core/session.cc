#include "core/session.h"

#include <algorithm>

#include "common/expects.h"
#include "workload/spatial.h"

namespace facsp::core {

using cellular::Connection;
using cellular::ConnectionId;
using cellular::ConnectionState;
using cellular::RequestKind;

SessionDriver::SessionDriver(const ScenarioConfig& scenario,
                             const PolicyFactory& factory,
                             std::uint64_t replication,
                             cellular::ConnectionId id_offset)
    : scenario_(scenario),
      // The driver's streams live under their own "driver" component and
      // the policy's under "policy": two distinct top-level components of
      // the same (seed, replication) pair, so a policy's draws can never
      // alias the traffic/mobility streams no matter what stream names
      // either side picks.
      rng_(sim::hash_seed(scenario.seed, "driver", replication)) {
  scenario_.validate();
  FACSP_EXPECTS(static_cast<bool>(factory));
  network_ = std::make_unique<cellular::CellularNetwork>(
      scenario_.rings, scenario_.cell_radius_m, scenario_.capacity_bu);
  // Centre generator first, then one per remaining cell with positive
  // spatial weight.  Each generator gets a disjoint id range and its own
  // random stream (keyed by the station id, not the spawner index), so
  // reshaping the spatial map never perturbs another cell's workload.
  constexpr cellular::ConnectionId kIdStride = 1u << 24;
  const workload::SpatialLoadMap spatial(scenario_.spatial);
  traffic_.push_back({std::make_unique<cellular::TrafficGenerator>(
                          scenario_.traffic, network_->layout(),
                          cellular::HexCoord{0, 0},
                          network_->center().position(),
                          rng_.stream("traffic", 0), 1 + id_offset),
                      spatial.weight(cellular::HexCoord{0, 0},
                                     network_->center().position())});
  for (cellular::BaseStation* bs : network_->stations()) {
    if (bs->coord() == cellular::HexCoord{0, 0}) continue;
    const double w = spatial.weight(bs->coord(), bs->position());
    if (w <= 0.0) continue;
    traffic_.push_back({std::make_unique<cellular::TrafficGenerator>(
                            scenario_.traffic, network_->layout(),
                            bs->coord(), bs->position(),
                            rng_.stream("traffic", bs->id() + 1),
                            kIdStride * (bs->id() + 1) + id_offset),
                        w});
  }
  mobility_ = std::make_unique<cellular::MobilityModel>(
      scenario_.mobility, rng_.stream("mobility"));
  predictor_ = std::make_unique<cellular::DirectionPredictor>(
      scenario_.predictor, rng_.stream("predictor"));
  sim::RngFactory policy_rng(
      sim::hash_seed(scenario_.seed, "policy", replication));
  policy_ = factory(*network_, policy_rng);
}

cac::AdmissionRequest SessionDriver::make_request(
    const Connection& conn, const cellular::MobileState& state,
    RequestKind kind, const cellular::BaseStation& target) {
  cac::AdmissionRequest req;
  req.id = conn.id;
  req.service = conn.service;
  req.bandwidth = conn.bandwidth;
  req.kind = kind;
  req.priority = conn.priority;
  req.speed_kmh = state.speed_kmh;
  req.angle_deg = predictor_->predict_angle_deg(state, target.position());
  req.distance_m = cellular::distance(state.position, target.position());
  req.mobile = state;
  req.now = sim_.now();
  return req;
}

void SessionDriver::handle_arrival(const cellular::CallRequest& call,
                                   bool measured) {
  cellular::BaseStation* bs = network_->station_covering(call.mobile.position);
  FACSP_ENSURES(bs != nullptr);  // requests spawn inside their own cell

  Session s;
  s.conn.id = call.id;
  s.conn.service = call.service;
  s.conn.bandwidth = call.bandwidth;
  s.conn.priority = call.priority;
  s.conn.origin = RequestKind::kNew;
  s.conn.state = ConnectionState::kPending;
  s.conn.request_time = sim_.now();
  s.conn.holding_time = call.holding_time;
  s.state = call.mobile;
  s.serving = bs;
  s.measured = measured;

  const auto req = make_request(s.conn, s.state, RequestKind::kNew, *bs);
  const auto decision = policy_->decide(req, *bs);
  if (measured)
    metrics_.record_new_call(call.service, call.priority,
                             decision.admitted);
  if (!decision.admitted) {
    return;  // blocked; nothing was allocated
  }

  const bool ok = cac::admit(*policy_, *bs, req);
  FACSP_ENSURES(ok);  // decide() verified can_fit under the same event
  start_session(std::move(s), sim_.now());
}

void SessionDriver::start_session(Session s, sim::SimTime start_time) {
  s.conn.state = ConnectionState::kActive;
  s.conn.start_time = start_time;
  const ConnectionId id = s.conn.id;
  s.completion = sim_.schedule_at(start_time + s.conn.holding_time,
                                  [this, id] { handle_completion(id); });
  if (scenario_.enable_mobility)
    s.next_move = sim_.schedule_at(start_time + scenario_.mobility_update_s,
                                   [this, id] { handle_mobility(id); });
  const bool inserted = sessions_.emplace(id, std::move(s)).second;
  FACSP_ENSURES(inserted);  // generators and shards mint disjoint ids
}

void SessionDriver::finish(Session& s, ConnectionState final_state) {
  if (s.conn.state == ConnectionState::kActive && s.serving != nullptr) {
    s.serving->release(s.conn.id, sim_.now());
    policy_->on_released(s.conn.id);
  }
  sim_.cancel(s.completion);
  sim_.cancel(s.next_move);
  s.conn.state = final_state;
  s.conn.end_time = sim_.now();
  if (s.measured) {
    if (final_state == ConnectionState::kCompleted)
      metrics_.record_completion(s.conn.service);
    else if (final_state == ConnectionState::kDropped)
      metrics_.record_drop(s.conn.service);
  }
  sessions_.erase(s.conn.id);
}

SessionDriver::Handover SessionDriver::depart(Session& s) {
  Handover d;
  d.conn = s.conn;
  d.state = s.state;
  d.when = sim_.now();
  // The completion event would fire at start + holding; what is left of the
  // call continues in whichever cell admits it.
  d.remaining_holding_s = std::max(
      0.0, s.conn.start_time + s.conn.holding_time - sim_.now());
  d.measured = s.measured;
  if (s.conn.state == ConnectionState::kActive && s.serving != nullptr) {
    s.serving->release(s.conn.id, sim_.now());
    policy_->on_released(s.conn.id);
  }
  sim_.cancel(s.completion);
  sim_.cancel(s.next_move);
  sessions_.erase(s.conn.id);
  return d;
}

void SessionDriver::handle_completion(ConnectionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;  // already finished
  finish(it->second, ConnectionState::kCompleted);
}

void SessionDriver::do_handoff(Session& s, cellular::BaseStation& target) {
  const auto req =
      make_request(s.conn, s.state, RequestKind::kHandoff, target);
  const auto decision = policy_->decide(req, target);
  if (s.measured) metrics_.record_handoff(s.conn.service, decision.admitted);
  if (!decision.admitted) {
    finish(s, ConnectionState::kDropped);
    return;
  }
  // Release on the source, then allocate on the target.
  s.serving->release(s.conn.id, sim_.now());
  policy_->on_released(s.conn.id);
  const bool ok = cac::admit(*policy_, target, req);
  FACSP_ENSURES(ok);
  s.serving = &target;
  ++s.conn.handoff_count;
}

void SessionDriver::handle_mobility(ConnectionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& s = it->second;

  mobility_->advance(s.state, scenario_.mobility_update_s);
  policy_->on_mobility(id, s.state, sim_.now());

  cellular::BaseStation* here =
      network_->station_covering(s.state.position);
  if (here == nullptr) {
    if (departure_sink_) {
      // Multi-cell mode: the session crosses into a neighbouring shard; the
      // inter-cell layer routes it (or completes it at the world edge).
      departure_sink_(depart(s));
      return;
    }
    // Left the modelled service area: the call leaves the system with its
    // resources freed (counted as a normal completion — the network did not
    // fail it).
    finish(s, ConnectionState::kCompleted);
    return;
  }
  if (here != s.serving) {
    do_handoff(s, *here);
    if (!sessions_.contains(id)) return;  // dropped during handoff
  }
  s.next_move = sim_.schedule_in(scenario_.mobility_update_s,
                                 [this, id] { handle_mobility(id); });
}

std::size_t SessionDriver::admit_inbound(std::span<const Handover> inbox) {
  cellular::BaseStation& bs = network_->center();
  batch_requests_.clear();
  for (const Handover& a : inbox) {
    // entry_fraction keeps every entry point inside the centre cell.
    FACSP_ENSURES(network_->station_covering(a.state.position) == &bs);
    auto req = make_request(a.conn, a.state, RequestKind::kHandoff, bs);
    req.now = a.when;
    batch_requests_.push_back(req);
  }
  batch_decisions_.resize(inbox.size());
  policy_->decide_batch(batch_requests_, bs, batch_decisions_);

  std::size_t admitted = 0;
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    const Handover& a = inbox[i];
    const bool ok = batch_decisions_[i].admitted &&
                    cac::admit(*policy_, bs, batch_requests_[i]);
    if (a.measured) {
      metrics_.record_handoff(a.conn.service, ok);
      if (!ok) metrics_.record_drop(a.conn.service);
    }
    if (!ok) continue;
    ++admitted;
    Session s;
    s.conn = a.conn;
    s.conn.holding_time = a.remaining_holding_s;
    ++s.conn.handoff_count;
    s.state = a.state;
    s.serving = &bs;
    s.measured = a.measured;
    start_session(std::move(s), a.when);
  }
  return admitted;
}

void SessionDriver::begin(int n_requests) {
  FACSP_EXPECTS(n_requests >= 0);
  network_->start_metrics(0.0);

  for (std::size_t g = 0; g < traffic_.size(); ++g) {
    const bool measured = (g == 0);  // element 0 is the centre's generator
    const int count = workload::SpatialLoadMap::scaled_requests(
        traffic_[g].weight, n_requests);
    for (const auto& call : traffic_[g].gen->generate(count)) {
      sim_.schedule_at(call.arrival_time, [this, call, measured] {
        handle_arrival(call, measured);
      });
    }
  }
}

std::uint64_t SessionDriver::advance_until(sim::SimTime t) {
  return sim_.run_until(t);
}

sim::SimTime SessionDriver::next_event_time() const {
  return sim_.next_event_time();
}

RunResult SessionDriver::result() const {
  RunResult result;
  result.metrics = metrics_;
  // Average over the active period (first arrival batch to last event),
  // not to the safety horizon — run_until() parks the clock there even
  // when the system drained hours earlier.
  const sim::SimTime end = std::max(sim_.last_event_time(), 1e-9);
  result.duration_s = end;
  result.events = sim_.events_fired();
  result.center_utilization =
      network_->center().average_utilization(end);
  return result;
}

RunResult SessionDriver::run(int n_requests) {
  begin(n_requests);
  sim_.run_until(scenario_.horizon_s);
  return result();
}

}  // namespace facsp::core
