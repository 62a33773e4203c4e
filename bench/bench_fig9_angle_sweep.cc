// Reproduces paper Fig. 9: FACS-P acceptance vs number of requesting
// connections for fixed user angles 0, 30, 50, 60, 90 degrees.
//
// Paper shape: angle 0 (heading straight at the BS) is accepted most;
// acceptance decreases as the angle grows, and beyond 90 degrees it is
// "almost zero" (those users are leaving — allocating to them is waste).
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Fig. 9 reproduction: FACS-P, angle as a parameter ===\n";
  const double angles[] = {0.0, 30.0, 50.0, 60.0, 90.0};

  sim::Figure fig("Fig. 9 — acceptance vs N for different angles (FACS-P)",
                  "N", "percentage of accepted calls");
  std::vector<sim::Series> series;
  for (double a : angles) {
    const auto scenario = core::paper_scenario_fixed_angle(a);
    const std::string label = "angle=" + std::to_string(static_cast<int>(a));
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
  for (double probe : {40.0, 80.0}) {
    core::ShapeCheck c;
    c.description = "angle 0 has the highest acceptance at N=" +
                    std::to_string(static_cast<int>(probe));
    c.passed = true;
    for (std::size_t i = 1; i < series.size(); ++i)
      c.passed = c.passed &&
                 series[0].y_at(probe) >= series[i].y_at(probe) - 2.0;
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "acceptance ordered by angle at N=50 (within noise)";
    c.passed = core::ordered_at({&series[4], &series[3], &series[2],
                                 &series[1], &series[0]},
                                50.0, 6.0);
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "angle 90 well below angle 0 at heavy load";
    c.passed = series[4].y_at(100) < series[0].y_at(100) - 10.0;
    c.details = std::to_string(series[4].y_at(100)) + "% vs " +
                std::to_string(series[0].y_at(100)) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "every angle's curve declines with load";
    c.passed = true;
    for (const auto& s : series)
      c.passed = c.passed && core::is_non_increasing(s, 8.0);
    checks.push_back(c);
  }

  return finish(fig, "fig9_angle_sweep.csv", checks);
}
