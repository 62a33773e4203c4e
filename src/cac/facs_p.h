// FACS-P — the paper's proposed Fuzzy Admission Control System with
// Priority of on-going connections (Sec. 3).
//
// Pipeline per Fig. 4:
//   User (Sp, An, Sr) -> FLC1 -> Cv
//   (Cv, Rq, Cs)      -> FLC2 -> Accept/Reject
// with the admitted calls feeding the differentiated-service counters RTC
// (voice+video) and NRTC (text).  The Counter state Cs presented to FLC2 is
// the *priority-weighted* occupancy from those counters: real-time and
// handoff-continuing on-going load is inflated by weights >= 1, so the
// controller saturates earlier and protects the QoS of on-going calls —
// producing Fig. 10's crossover against plain FACS.
#pragma once

#include <unordered_map>

#include "cac/counters.h"
#include "cac/facs_flc.h"
#include "cac/fuzzy_cac_base.h"

namespace facsp::cac {

/// Configuration of FACS-P.
struct FacsPConfig {
  Flc1Params flc1{};
  Flc2Params flc2{};
  PriorityWeights weights{};
  fuzzy::InferenceOptions inference{};
  fuzzy::DefuzzMethod defuzz_method = fuzzy::DefuzzMethod::kCentroid;
  /// Admit when the crisp A/R exceeds this (0 = the NRNA centre).
  double accept_threshold = 0.08;
  /// Score bonus for handoff continuations of on-going calls (stronger than
  /// FACS's: on-going connections are the priority class).
  double handoff_score_bonus = 0.30;
};

/// The proposed policy.  Maintains one RTC/NRTC counter pair per base
/// station, updated through the on_admitted / on_released notifications
/// (paper Fig. 4: the A/R output feeds the counters).
class FacsPPolicy final : public FuzzyCacBase {
 public:
  explicit FacsPPolicy(const FacsPConfig& config = {});

  std::string_view name() const noexcept override { return "FACS-P"; }

  void on_admitted(const AdmissionRequest& req,
                   const cellular::BaseStation& bs) override;
  void on_released(cellular::ConnectionId id, cellular::ServiceClass service,
                   const cellular::BaseStation& bs) override;
  void reset() override;

  const FacsPConfig& config() const noexcept { return config_; }

  /// Counters of one base station (created on first use; exposed for tests).
  const DifferentiatedCounters& counters(cellular::BaseStationId bs) const;

 protected:
  double flc1_third_input(const AdmissionRequest& req) const override;
  double counter_state(const AdmissionRequest& req,
                       const cellular::BaseStation& bs) const override;

 private:
  DifferentiatedCounters& counters_mut(cellular::BaseStationId bs) const;

  FacsPConfig config_;
  /// Lazily populated; mutable so the const counter_state() can create an
  /// empty ledger for a BS it has never seen.
  mutable std::unordered_map<cellular::BaseStationId, DifferentiatedCounters>
      counters_;
  /// Last-BS memo: admission decisions hit the same cell repeatedly, so the
  /// hash lookup is skipped on the hot path.  unordered_map never invalidates
  /// value pointers on insert; reset() clears the memo with the map.
  mutable DifferentiatedCounters* last_counters_ = nullptr;
  mutable cellular::BaseStationId last_bs_ = 0;
};

}  // namespace facsp::cac
