// Future-work bench: the paper's closing sentence — "in the future, we
// would like to consider also the priority of requesting connections" —
// realised as FACS-PR and measured.
//
// Reports per-priority acceptance under FACS-PR vs the priority-blind
// FACS-P on the paper's scenario (20% low / 60% normal / 20% high
// requesting-priority mix).  Expected shape: high-priority acceptance
// stays near FACS-P's aggregate while low-priority acceptance is
// sacrificed under load; the overall curve stays close to FACS-P's.
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Future work: priority of requesting connections ===\n";
  const auto scenario = core::paper_scenario();
  const std::vector<int> n_values = core::paper_n_values();
  const int reps = replications();

  // Per-priority acceptance needs run_single (the sweep aggregates only
  // the headline metric), so collect manually.
  sim::Figure fig("FACS-PR per-priority acceptance vs N", "N",
                  "percentage of accepted calls");
  auto& s_high = fig.add_series("high (FACS-PR)");
  auto& s_norm = fig.add_series("normal (FACS-PR)");
  auto& s_low = fig.add_series("low (FACS-PR)");
  auto& s_blind = fig.add_series("any (FACS-P)");

  core::Experiment pr(scenario, core::make_facs_pr_factory());
  core::Experiment fp(scenario, core::make_facs_p_factory());

  double overall_gap_sum = 0.0;
  for (int n : n_values) {
    sim::SummaryStats high, norm, low, pr_all, fp_all;
    for (int rep = 0; rep < reps; ++rep) {
      const auto run = pr.run_single(n, rep);
      high.add(run.metrics.acceptance_percent(cellular::UserPriority::kHigh));
      norm.add(
          run.metrics.acceptance_percent(cellular::UserPriority::kNormal));
      low.add(run.metrics.acceptance_percent(cellular::UserPriority::kLow));
      pr_all.add(run.metrics.acceptance_percent());
      fp_all.add(fp.run_single(n, rep).metrics.acceptance_percent());
    }
    s_high.add(n, high.mean(), high.ci_half_width());
    s_norm.add(n, norm.mean(), norm.ci_half_width());
    s_low.add(n, low.mean(), low.ci_half_width());
    s_blind.add(n, fp_all.mean(), fp_all.ci_half_width());
    overall_gap_sum += std::abs(pr_all.mean() - fp_all.mean());
    std::cerr << "  N=" << n << " done\n";
  }

  std::vector<core::ShapeCheck> checks;
  for (double probe : {50.0, 100.0}) {
    core::ShapeCheck c;
    c.description = "acceptance ordered high >= normal >= low at N=" +
                    std::to_string(static_cast<int>(probe));
    c.passed = s_high.y_at(probe) >= s_norm.y_at(probe) - 3.0 &&
               s_norm.y_at(probe) >= s_low.y_at(probe) - 3.0;
    c.details = std::to_string(s_high.y_at(probe)) + " / " +
                std::to_string(s_norm.y_at(probe)) + " / " +
                std::to_string(s_low.y_at(probe));
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description =
        "high-priority users keep most of their light-load service level "
        "at N=100";
    c.passed = s_high.y_at(100) > s_low.y_at(100) + 10.0;
    c.details = "high " + std::to_string(s_high.y_at(100)) + "% vs low " +
                std::to_string(s_low.y_at(100)) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description =
        "aggregate acceptance stays close to priority-blind FACS-P";
    c.passed = overall_gap_sum / n_values.size() < 8.0;
    c.details = "mean |FACS-PR - FACS-P| = " +
                std::to_string(overall_gap_sum / n_values.size());
    checks.push_back(c);
  }

  return finish(fig, "future_work_priority.csv", checks);
}
