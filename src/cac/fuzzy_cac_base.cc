#include "cac/fuzzy_cac_base.h"

#include "common/expects.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace facsp::cac {

namespace {

struct FuzzyMetrics {
  obs::Counter& decisions;
  obs::Histogram& batch_ns;

  static FuzzyMetrics& get() {
    static FuzzyMetrics m{
        obs::Registry::instance().counter("fuzzy.decisions"),
        obs::Registry::instance().histogram("fuzzy.batch_ns"),
    };
    return m;
  }
};

}  // namespace

FuzzyCacBase::FuzzyCacBase(
    std::shared_ptr<const fuzzy::FuzzyController> flc1,
    std::shared_ptr<const fuzzy::FuzzyController> flc2,
    double accept_threshold, double handoff_score_bonus)
    : flc1_(std::move(flc1)),
      flc2_(std::move(flc2)),
      accept_threshold_(accept_threshold),
      handoff_score_bonus_(handoff_score_bonus) {
  FACSP_EXPECTS(flc1_ != nullptr && flc2_ != nullptr);
  FACSP_EXPECTS(flc1_->input_count() == 3);
  FACSP_EXPECTS(flc2_->input_count() == 3);
}

double FuzzyCacBase::correction_value(const AdmissionRequest& req) const {
  const double in[3] = {req.speed_kmh, req.angle_deg, flc1_third_input(req)};
  return flc1_->evaluate_with(scratch_, in);
}

void FuzzyCacBase::decide_batch(std::span<const AdmissionRequest> reqs,
                                const cellular::BaseStation& bs,
                                std::span<AdmissionDecision> out) {
  FACSP_EXPECTS(reqs.size() == out.size());
  const std::size_t n = reqs.size();
  if (n == 0) return;

  const bool metrics_on = obs::metrics_enabled();
  obs::ScopedSpan span("fuzzy", "decide_batch", static_cast<std::int64_t>(n),
                       metrics_on ? &FuzzyMetrics::get().batch_ns : nullptr);
  if (metrics_on) FuzzyMetrics::get().decisions.add(n);

  // Stage 1: every request's FLC1 row (speed, angle, third input), batched
  // through the lane kernels.  batch_out receives the Cv per request.
  scratch_.batch_rows.resize(n * 3);
  scratch_.batch_out.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    scratch_.batch_rows[r * 3 + 0] = reqs[r].speed_kmh;
    scratch_.batch_rows[r * 3 + 1] = reqs[r].angle_deg;
    scratch_.batch_rows[r * 3 + 2] = flc1_third_input(reqs[r]);
  }
  flc1_->evaluate_batch_with(scratch_, scratch_.batch_rows,
                             scratch_.batch_out);

  // Stage 2: rebuild the rows in place as FLC2 inputs (Cv, bandwidth,
  // counter state) and batch again.  Both controllers are stateless and
  // counter_state() does not consult the lane scratch, so each score equals
  // the one decide() computes request-by-request.
  for (std::size_t r = 0; r < n; ++r) {
    scratch_.batch_rows[r * 3 + 0] = scratch_.batch_out[r];
    scratch_.batch_rows[r * 3 + 1] = static_cast<double>(reqs[r].bandwidth);
    scratch_.batch_rows[r * 3 + 2] = counter_state(reqs[r], bs);
  }
  flc2_->evaluate_batch_with(scratch_, scratch_.batch_rows,
                             scratch_.batch_out);

  for (std::size_t r = 0; r < n; ++r) {
    double score = scratch_.batch_out[r];
    if (reqs[r].kind == cellular::RequestKind::kHandoff)
      score += handoff_score_bonus_;
    out[r].score = score;
    out[r].verdict = verdict_from_score(score);
    out[r].admitted =
        score > accept_threshold_ && bs.can_fit(reqs[r].bandwidth);
  }
}

AdmissionDecision FuzzyCacBase::decide(const AdmissionRequest& req,
                                       const cellular::BaseStation& bs) {
  const double cv = correction_value(req);
  const double cs = counter_state(req, bs);
  const double in[3] = {cv, static_cast<double>(req.bandwidth), cs};
  double score = flc2_->evaluate_with(scratch_, in);

  // Priority of on-going connections: a handoff *is* an on-going call, so
  // its continuation is favoured over fresh admissions.
  if (req.kind == cellular::RequestKind::kHandoff)
    score += handoff_score_bonus_;

  AdmissionDecision d;
  d.score = score;
  d.verdict = verdict_from_score(score);
  d.admitted = score > accept_threshold_ && bs.can_fit(req.bandwidth);
  return d;
}

}  // namespace facsp::cac
