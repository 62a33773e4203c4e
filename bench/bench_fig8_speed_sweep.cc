// Reproduces paper Fig. 8: FACS-P acceptance vs number of requesting
// connections for fixed user speeds 4, 10, 30, 60 km/h.
//
// Paper shape: higher speed => higher acceptance at every load level (fast
// users' directions are predictable, so the controller allocates resources
// to users who actually stay useful to the cell).
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Fig. 8 reproduction: FACS-P, speed as a parameter ===\n";
  const double speeds[] = {4.0, 10.0, 30.0, 60.0};

  sim::Figure fig("Fig. 8 — acceptance vs N for different speeds (FACS-P)",
                  "N", "percentage of accepted calls");
  std::vector<sim::Series> series;
  for (double v : speeds) {
    const auto scenario = core::paper_scenario_fixed_speed(v);
    const std::string label = std::to_string(static_cast<int>(v)) + " km/h";
    const auto s = core::metric_series(
        run_sweep(scenario, {label, core::make_facs_p_factory()}),
        &core::ResultRow::acceptance_percent, label);
    auto& dst = fig.add_series(s.name());
    for (std::size_t i = 0; i < s.size(); ++i)
      dst.add(s.x(i), s.y(i), s.ci(i).value_or(0.0));
    series.push_back(s);
    std::cerr << "  [" << s.name() << "] done\n";
  }

  std::vector<core::ShapeCheck> checks;
  for (double probe : {40.0, 70.0, 100.0}) {
    core::ShapeCheck c;
    c.description = "acceptance ordered by speed at N=" +
                    std::to_string(static_cast<int>(probe));
    c.passed = core::ordered_at(
        {&series[0], &series[1], &series[2], &series[3]}, probe, 4.0);
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "60 km/h clearly above 4 km/h at heavy load";
    c.passed = series[3].y_at(100) > series[0].y_at(100) + 10.0;
    c.details = std::to_string(series[3].y_at(100)) + "% vs " +
                std::to_string(series[0].y_at(100)) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "every speed's curve declines with load";
    c.passed = true;
    for (const auto& s : series)
      c.passed = c.passed && core::is_non_increasing(s, 8.0);
    checks.push_back(c);
  }

  return finish(fig, "fig8_speed_sweep.csv", checks);
}
