#include "cellular/basestation.h"

#include "common/error.h"
#include "common/expects.h"

namespace facsp::cellular {

BaseStation::BaseStation(BaseStationId id, HexCoord coord, Point position,
                         Bandwidth capacity)
    : id_(id), coord_(coord), position_(position) {
  if (!(capacity > 0.0))
    throw ConfigError("base station " + std::to_string(id) +
                      ": capacity must be > 0");
  load_.capacity = capacity;
}

void BaseStation::touch(sim::SimTime now) {
  if (util_.started()) util_.update(now, load_.utilization());
}

bool BaseStation::allocate(const Connection& conn, sim::SimTime now,
                           bool via_handoff) {
  FACSP_EXPECTS_MSG(conn.bandwidth > 0.0,
                    "connection " << conn.id << " has non-positive bandwidth");
  FACSP_EXPECTS_MSG(!holds(conn.id),
                    "connection " << conn.id << " already allocated on BS "
                                  << id_);
  if (!can_fit(conn.bandwidth)) return false;
  held_.emplace(conn.id,
                Held{conn.bandwidth, conn.real_time(), via_handoff});
  load_.used += conn.bandwidth;
  if (conn.real_time()) {
    load_.rt_used += conn.bandwidth;
    if (via_handoff) load_.rt_handoff_used += conn.bandwidth;
  } else {
    load_.nrt_used += conn.bandwidth;
    if (via_handoff) load_.nrt_handoff_used += conn.bandwidth;
  }
  touch(now);
  return true;
}

void BaseStation::release(ConnectionId id, sim::SimTime now) {
  const auto it = held_.find(id);
  FACSP_EXPECTS_MSG(it != held_.end(),
                    "connection " << id << " not allocated on BS " << id_);
  const Held h = it->second;
  held_.erase(it);
  load_.used -= h.bw;
  if (h.real_time) {
    load_.rt_used -= h.bw;
    if (h.via_handoff) load_.rt_handoff_used -= h.bw;
  } else {
    load_.nrt_used -= h.bw;
    if (h.via_handoff) load_.nrt_handoff_used -= h.bw;
  }
  // Guard against floating-point drift pushing counters below zero.
  if (load_.used < 1e-9) load_.used = 0.0;
  if (load_.rt_used < 1e-9) load_.rt_used = 0.0;
  if (load_.nrt_used < 1e-9) load_.nrt_used = 0.0;
  if (load_.rt_handoff_used < 1e-9) load_.rt_handoff_used = 0.0;
  if (load_.nrt_handoff_used < 1e-9) load_.nrt_handoff_used = 0.0;
  touch(now);
}

bool BaseStation::holds(ConnectionId id) const noexcept {
  return held_.contains(id);
}

void BaseStation::start_metrics(sim::SimTime t0) {
  util_.start(t0, load_.utilization());
}

double BaseStation::average_utilization(sim::SimTime now) const {
  FACSP_EXPECTS_MSG(util_.started(),
                    "start_metrics was not called on BS " << id_);
  return util_.average(now);
}

}  // namespace facsp::cellular
