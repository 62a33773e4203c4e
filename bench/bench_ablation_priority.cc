// Ablation A1: where does the Fig. 10 crossover come from?
//
// Sweeps FACS-P's real-time priority weight (1.0 = no priority, i.e. the
// differentiated counters degenerate to plain occupancy) and reports the
// acceptance curve and the handoff-dropping rate.  The paper's crossover
// against FACS should appear as the weight grows and its location should
// move left (earlier) with stronger weighting.
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Ablation: FACS-P real-time priority weight ===\n";
  const auto scenario = core::paper_scenario();
  const double weights[] = {1.0, 1.3, 1.6, 2.0};

  sim::Figure fig("A1 — acceptance vs N for priority weights (FACS-P)", "N",
                  "percentage of accepted calls");
  sim::Figure drops("A1b — handoff dropping vs N for priority weights", "N",
                    "dropping probability (%)");
  std::vector<sim::Series> acc;
  const auto facs = core::metric_series(
      run_sweep(scenario, {"FACS", core::make_facs_factory()}),
      &core::ResultRow::acceptance_percent, "FACS");

  for (double w : weights) {
    cac::PriorityWeights priority;
    priority.real_time = w;
    const std::string label = "w_rt=" + std::to_string(w).substr(0, 3);
    const auto table =
        run_sweep(scenario, {label, core::make_facs_p_factory(priority)});
    const auto s = core::metric_series(
        table, &core::ResultRow::acceptance_percent, label);
    const auto d =
        core::metric_series(table, &core::ResultRow::dropping_percent, label);
    auto& dst = fig.add_series(label);
    for (std::size_t i = 0; i < s.size(); ++i)
      dst.add(s.x(i), s.y(i), s.ci(i).value_or(0.0));
    auto& ddst = drops.add_series(label);
    for (std::size_t i = 0; i < d.size(); ++i) ddst.add(d.x(i), d.y(i));
    acc.push_back(s);
    std::cerr << "  [" << label << "] done\n";
  }

  std::vector<core::ShapeCheck> checks;
  {
    core::ShapeCheck c;
    c.description =
        "stronger priority weight lowers heavy-load acceptance (N=100)";
    c.passed = acc.front().y_at(100) >= acc.back().y_at(100) - 1.0;
    c.details = "w=1.0: " + std::to_string(acc.front().y_at(100)) +
                "%, w=2.0: " + std::to_string(acc.back().y_at(100)) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "light load (N=10) barely affected by the weight";
    c.passed =
        std::abs(acc.front().y_at(10) - acc[2].y_at(10)) < 10.0;
    checks.push_back(c);
  }
  {
    const auto cross_default = core::crossover_x(acc[2], facs);
    core::ShapeCheck c;
    c.description =
        "default weight (1.6) reproduces the Fig. 10 crossover vs FACS";
    c.passed = cross_default.has_value() && *cross_default <= 50.0;
    if (cross_default)
      c.details = "crossover at N=" + std::to_string(*cross_default);
    checks.push_back(c);
  }

  fig.print_table(std::cout);
  std::cout << '\n';
  drops.print_table(std::cout);
  std::cout << '\n';
  core::write_csv(fig, "ablation_priority.csv");
  core::print_shape_checks(std::cout, checks);
  return 0;
}
