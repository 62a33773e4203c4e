// Admission-policy interface shared by FACS-P, FACS, SCC and the classical
// baselines.  Every runtime (single-cell simulator, multi-cell barrier,
// decision server, socket path) builds an AdmissionRequest per new call or
// handoff, asks the policy to decide (one at a time or as a batch), and
// applies each admission through cac::admit — the one place that re-checks
// capacity, allocates on the base station and notifies the policy.  The
// base station is the one call ledger per cell (its LoadState carries the
// RTC/NRTC counters FACS-P reads); the lifecycle hooks exist for policies
// that track calls beyond one cell (SCC's shadow clusters).  A policy
// instance serves one run; the next run builds a new one.
#pragma once

#include <span>
#include <string_view>

#include "cellular/basestation.h"
#include "cellular/connection.h"
#include "cellular/mobility.h"
#include "cellular/service.h"
#include "sim/event_queue.h"

namespace facsp::cac {

/// Everything a policy may consult about one admission attempt.
struct AdmissionRequest {
  cellular::ConnectionId id = 0;
  cellular::ServiceClass service = cellular::ServiceClass::kText;
  cellular::Bandwidth bandwidth = 1.0;
  cellular::RequestKind kind = cellular::RequestKind::kNew;
  /// Priority of the *requesting* connection (the paper's future work;
  /// only FACS-PR consumes it, other policies ignore it).
  cellular::UserPriority priority = cellular::UserPriority::kNormal;

  /// Kinematics as the network *estimates* them.  angle_deg is the predicted
  /// angle between the user's travel direction and the bearing to the target
  /// base station (0 = heading straight at it); prediction error already
  /// included by the DirectionPredictor upstream.
  double speed_kmh = 0.0;
  double angle_deg = 0.0;
  double distance_m = 0.0;  ///< distance from the target BS (FACS's input)

  /// True kinematic state (SCC projects trajectories from it).
  cellular::MobileState mobile;

  sim::SimTime now = 0.0;
};

/// Qualitative admission verdict (paper's five-level soft decision).
enum class Verdict {
  kReject,
  kWeakReject,
  kNeutral,      ///< "not reject, not accept"
  kWeakAccept,
  kAccept,
};

std::string_view to_string(Verdict v) noexcept;

/// Map a crisp decision score in [-1, 1] to the five-level verdict.
/// Boundaries at +/-0.15 and +/-0.45 (midpoints between the A/R term cores).
Verdict verdict_from_score(double score) noexcept;

/// Outcome of one admission attempt.
struct AdmissionDecision {
  bool admitted = false;
  /// Crisp decision score.  For the fuzzy policies this is the defuzzified
  /// A/R in [-1, 1]; for baselines a capacity margin mapped into [-1, 1].
  double score = 0.0;
  Verdict verdict = Verdict::kReject;
};

/// Abstract call admission controller.
///
/// Implementations must be deterministic given the request stream (any
/// randomness must come from seeded streams passed at construction), so that
/// baseline comparisons use common random numbers.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Decide whether `req` may be admitted to `bs`.  Must not mutate the BS;
  /// the caller applies an admission through cac::admit().
  virtual AdmissionDecision decide(const AdmissionRequest& req,
                                   const cellular::BaseStation& bs) = 0;

  /// Decide a batch of independent requests against one base station,
  /// writing out[i] for reqs[i].  Every decision sees the same load
  /// snapshot (nothing is admitted between them), so a burst can
  /// over-admit; the decision server and the multi-cell barrier apply each
  /// admission through cac::admit, which demotes what no longer fits.
  /// The default loops decide(); the fuzzy policies reuse one inference
  /// scratch across the whole batch.
  virtual void decide_batch(std::span<const AdmissionRequest> reqs,
                            const cellular::BaseStation& bs,
                            std::span<AdmissionDecision> out);

  /// The request was admitted and its bandwidth allocated (by cac::admit).
  virtual void on_admitted(const AdmissionRequest& req) { (void)req; }

  /// The connection released its bandwidth (completion, drop after
  /// allocation, or the source side of a handoff).
  virtual void on_released(cellular::ConnectionId id) { (void)id; }

  /// Periodic mobility report for an on-going connection (SCC's shadow
  /// clusters consume these).
  virtual void on_mobility(cellular::ConnectionId id,
                           const cellular::MobileState& state,
                           sim::SimTime now) {
    (void)id;
    (void)state;
    (void)now;
  }
};

/// Apply an admitted request to `bs`: the one admission step every runtime
/// shares.  Returns false and changes nothing when `bs` already holds
/// `req.id` or the call no longer fits (batched decisions see one load
/// snapshot, and socket clients choose their own ids).  Otherwise allocates
/// the request's bandwidth at `req.now` — via_handoff for kHandoff — then
/// calls policy.on_admitted(req) and returns true.
bool admit(AdmissionPolicy& policy, cellular::BaseStation& bs,
           const AdmissionRequest& req);

}  // namespace facsp::cac
