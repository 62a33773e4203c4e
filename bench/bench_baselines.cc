// Extension A3: FACS-P against the classical trunk-reservation baselines —
// complete sharing, guard channel and fractional guard channel — on the
// Fig. 7 scenario.  Reports both the new-call acceptance (the paper's
// metric) and the handoff-dropping probability (the QoS the guards buy).
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Extension: FACS-P vs classical baselines ===\n";
  // Background traffic in every cell so handoffs actually contend — the
  // dropping comparison is the point of this bench.
  auto scenario = core::paper_scenario();
  scenario.spatial.kind = workload::SpatialKind::kUniform;

  const std::vector<core::PolicyChoice> policies = {
      {"FACS-P", core::make_facs_p_factory()},
      {"CS", core::make_complete_sharing_factory()},
      {"GC(8)", core::make_guard_channel_factory(8.0)},
      {"FGC(8)", core::make_fractional_guard_factory(8.0)},
  };

  sim::Figure acc_fig("A3 — acceptance vs N, FACS-P vs classical CAC", "N",
                      "percentage of accepted calls");
  sim::Figure drop_fig("A3b — handoff dropping vs N", "N",
                       "dropping probability (%)");
  std::vector<sim::Series> acc, drops;
  for (const auto& p : policies) {
    const auto table = run_sweep(scenario, p);
    const auto a = core::metric_series(
        table, &core::ResultRow::acceptance_percent, p.name);
    const auto d =
        core::metric_series(table, &core::ResultRow::dropping_percent, p.name);
    auto& adst = acc_fig.add_series(p.name);
    for (std::size_t i = 0; i < a.size(); ++i)
      adst.add(a.x(i), a.y(i), a.ci(i).value_or(0.0));
    auto& ddst = drop_fig.add_series(p.name);
    for (std::size_t i = 0; i < d.size(); ++i) ddst.add(d.x(i), d.y(i));
    acc.push_back(a);
    drops.push_back(d);
    std::cerr << "  [" << p.name << "] done\n";
  }

  std::vector<core::ShapeCheck> checks;
  {
    core::ShapeCheck c;
    c.description = "complete sharing accepts the most new calls";
    c.passed = true;
    for (std::size_t i = 0; i < acc.size(); ++i)
      if (policies[i].name != "CS")
        c.passed = c.passed && acc[1].y_at(100) >= acc[i].y_at(100) - 2.0;
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "guard channel drops fewer handoffs than CS";
    c.passed = drops[2].y_at(100) <= drops[1].y_at(100) + 1.0;
    c.details = "GC " + std::to_string(drops[2].y_at(100)) + "% vs CS " +
                std::to_string(drops[1].y_at(100)) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "FGC sits between CS and GC in new-call acceptance";
    const double fgc = acc[3].y_at(100);
    c.passed = fgc <= acc[1].y_at(100) + 2.0 && fgc >= acc[2].y_at(100) - 2.0;
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description =
        "FACS-P trades new-call acceptance for on-going-call protection";
    c.passed = acc[0].y_at(100) <= acc[1].y_at(100) &&
               drops[0].y_at(100) <= drops[1].y_at(100) + 1.0;
    checks.push_back(c);
  }

  acc_fig.print_table(std::cout);
  std::cout << '\n';
  drop_fig.print_table(std::cout);
  std::cout << '\n';
  core::write_csv(acc_fig, "baselines_acceptance.csv");
  core::write_csv(drop_fig, "baselines_dropping.csv");
  core::print_shape_checks(std::cout, checks);
  return 0;
}
