// Differentiated-service counters (paper Fig. 4: RTC / NRTC).
//
// FACS-P tracks on-going connections in two counters — the Real Time Counter
// (voice+video) and the Non Real Time Counter (text) — and derives the
// Counter state (Cs) fed to FLC2 from them, weighting real-time and
// handoff-continuing load by priority factors >= 1.  That weighting is the
// paper's "priority of on-going connections": as protected load accumulates,
// the effective Cs saturates earlier and the controller turns conservative
// before the cell is physically full.
//
// The counters themselves are the base station's ledger
// (cellular::LoadState: rt_used / nrt_used and their handoff parts); this
// header holds only the weights and the one function that reads them.
#pragma once

#include "cellular/basestation.h"

namespace facsp::cac {

/// Priority weighting configuration.
struct PriorityWeights {
  /// Multiplier on bandwidth held by real-time on-going connections.
  double real_time = 1.6;
  /// Multiplier on bandwidth held by non-real-time on-going connections.
  double non_real_time = 1.0;
  /// Extra multiplier on connections that arrived via handoff (they already
  /// survived at least one cell transition; dropping them is worst).
  double handoff_bonus = 1.2;
};

/// Priority-weighted occupancy of one base station: the effective "Counter
/// state" FLC2 sees.  Always >= load.used when every weight is >= 1.
inline cellular::Bandwidth effective_occupancy(
    const cellular::LoadState& load, const PriorityWeights& w) noexcept {
  return w.real_time * (load.rt_used - load.rt_handoff_used) +
         w.real_time * w.handoff_bonus * load.rt_handoff_used +
         w.non_real_time * (load.nrt_used - load.nrt_handoff_used) +
         w.non_real_time * w.handoff_bonus * load.nrt_handoff_used;
}

}  // namespace facsp::cac
