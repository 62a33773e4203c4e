// Validation bench: the simulator against closed-form teletraffic theory.
//
// With mobility off, complete sharing on a 40-BU cell offered the paper's
// 70/20/10 mix is a multi-rate Erlang loss system; the Kaufman-Roberts
// recursion gives its exact stationary acceptance.  This bench sweeps the
// offered load and prints simulated vs analytic acceptance side by side —
// the strongest end-to-end correctness evidence the repository has.
#include "bench_common.h"

#include "cellular/erlang.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Validation: simulator vs Kaufman-Roberts ===\n";
  auto scenario = core::paper_scenario(404);
  scenario.enable_mobility = false;
  scenario.traffic.arrival_window_s = 6000.0;  // quasi-stationary
  scenario.traffic.mean_holding_s = 300.0;

  const auto sim_result =
      run_sweep(scenario, {"CS", core::make_complete_sharing_factory()},
                {40, 80, 120, 160, 200, 240, 280, 320});

  sim::Figure fig("simulated vs analytic acceptance (complete sharing)",
                  "N", "percentage of accepted calls");
  auto& sim_series = fig.add_series("simulated");
  auto& kr_series = fig.add_series("Kaufman-Roberts");
  double worst_gap = 0.0;
  for (const auto& row : sim_result.rows) {
    const double lambda =
        row.n / scenario.traffic.arrival_window_s;
    const auto kr = cellular::KaufmanRoberts::for_paper_mix(
        40, scenario.traffic.mix, lambda, scenario.traffic.mean_holding_s);
    sim_series.add(row.n, row.acceptance_percent.mean(),
                   row.acceptance_percent.ci_half_width());
    kr_series.add(row.n, kr.acceptance_percent());
    worst_gap = std::max(worst_gap,
                         std::abs(row.acceptance_percent.mean() -
                                  kr.acceptance_percent()));
  }

  std::vector<core::ShapeCheck> checks;
  {
    core::ShapeCheck c;
    c.description =
        "simulated acceptance within 5 points of theory at every load";
    // Cold-start bias bound: holding/window = 5%.
    c.passed = worst_gap < 5.0 + 1.0;
    c.details = "worst |sim - theory| = " + std::to_string(worst_gap);
    checks.push_back(c);
  }
  {
    // Erlang-B single-class spot check.
    const double b = cellular::erlang_b(52.5, 40);
    core::ShapeCheck c;
    c.description = "Erlang-B(52.5 erl, 40 servers) sanity";
    c.passed = b > 0.2 && b < 0.3;
    c.details = "B = " + std::to_string(b);
    checks.push_back(c);
  }

  return finish(fig, "validation_kaufman_roberts.csv", checks);
}
