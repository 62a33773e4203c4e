// Base station: one cell's radio resources and on-going-connection ledger.
//
// Capacity is counted in bandwidth units (paper: 40 BU per BS).  Besides the
// plain occupancy, the BS maintains the paper's differentiated-service
// counters — RTC (real-time: voice+video) and NRTC (non-real-time: text) —
// each with the share held by calls that arrived by handoff.  This is the
// one call ledger per cell: FACS-P derives its counter state Cs from
// load() rather than keeping a copy of its own.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "cellular/connection.h"
#include "cellular/hexgrid.h"
#include "cellular/service.h"
#include "sim/stats.h"

namespace facsp::cellular {

using BaseStationId = std::uint32_t;

/// Snapshot of a base station's load, consumed by admission policies.
struct LoadState {
  Bandwidth capacity = 40.0;
  Bandwidth used = 0.0;           ///< total occupied BU
  Bandwidth rt_used = 0.0;        ///< BU held by real-time connections (RTC)
  Bandwidth nrt_used = 0.0;       ///< BU held by non-real-time (NRTC)
  /// The parts of rt_used / nrt_used held by calls that arrived by handoff.
  Bandwidth rt_handoff_used = 0.0;
  Bandwidth nrt_handoff_used = 0.0;

  Bandwidth free() const noexcept { return capacity - used; }
  double utilization() const noexcept {
    return capacity > 0.0 ? used / capacity : 0.0;
  }
};

/// One cell's base station.  Pure resource ledger: admission *decisions*
/// live in the cac layer; the BS only enforces physical capacity.
class BaseStation {
 public:
  /// Throws facsp::ConfigError for non-positive capacity.
  BaseStation(BaseStationId id, HexCoord coord, Point position,
              Bandwidth capacity);

  BaseStationId id() const noexcept { return id_; }
  const HexCoord& coord() const noexcept { return coord_; }
  const Point& position() const noexcept { return position_; }
  Bandwidth capacity() const noexcept { return load_.capacity; }

  const LoadState& load() const noexcept { return load_; }
  Bandwidth used() const noexcept { return load_.used; }
  Bandwidth free() const noexcept { return load_.free(); }

  /// True when `bw` BU can physically fit right now.
  bool can_fit(Bandwidth bw) const noexcept { return bw <= load_.free() + 1e-9; }

  /// Allocate bandwidth for a connection.  Returns false (and changes
  /// nothing) when capacity would be exceeded; the caller decides whether
  /// that is a block or a drop.  `via_handoff` marks connections arriving
  /// from a neighbour cell.
  bool allocate(const Connection& conn, sim::SimTime now,
                bool via_handoff = false);

  /// Release a connection's bandwidth (normal completion or handoff-out).
  /// Precondition: the connection is currently allocated here.
  void release(ConnectionId id, sim::SimTime now);

  /// True when the connection currently holds bandwidth on this BS.
  bool holds(ConnectionId id) const noexcept;

  std::size_t active_connections() const noexcept { return held_.size(); }

  /// Time-weighted utilization over [t0, now]; start_metrics must have been
  /// called first.
  void start_metrics(sim::SimTime t0);
  double average_utilization(sim::SimTime now) const;

 private:
  struct Held {
    Bandwidth bw;
    bool real_time;
    bool via_handoff;
  };

  void touch(sim::SimTime now);

  BaseStationId id_;
  HexCoord coord_;
  Point position_;
  LoadState load_;
  std::unordered_map<ConnectionId, Held> held_;
  sim::TimeWeighted util_;
};

}  // namespace facsp::cellular
