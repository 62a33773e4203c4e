// Shared plumbing for the figure-reproduction benches: run the paper's
// sweep for a set of policies, print the figure as an aligned table, write
// the CSV next to the binary, and evaluate the paper-vs-measured shape
// checks.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"
#include "sim/timeseries.h"

namespace facsp::bench {

/// Replications per (policy, N) cell.  Figure benches favour smooth curves;
/// override with FACSP_BENCH_REPS for quick runs.
inline int replications() {
  if (const char* env = std::getenv("FACSP_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 16;
}

/// Sweep one policy over `n_values` on `scenario`, replications() runs per
/// N, on one thread.  One row per N, in `n_values` order.
inline core::ResultTable run_sweep(
    const core::ScenarioConfig& scenario, core::PolicyChoice policy,
    std::vector<int> n_values = core::paper_n_values()) {
  core::SweepSpec spec;
  spec.base = scenario;
  spec.policy_axis({std::move(policy)});
  spec.n_axis(std::move(n_values));
  spec.replications = replications();
  spec.threads = 1;
  return core::SweepRunner(std::move(spec)).run();
}

/// Run the full paper sweep for every policy and collect the acceptance
/// series into a figure.
inline sim::Figure run_acceptance_figure(
    const std::string& title, const core::ScenarioConfig& scenario,
    const std::vector<core::PolicyChoice>& policies,
    std::vector<sim::Series>* series_out = nullptr) {
  sim::Figure fig(title, "N", "percentage of accepted calls");
  for (const auto& p : policies) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto series = core::metric_series(
        run_sweep(scenario, p), &core::ResultRow::acceptance_percent, p.name);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::cerr << "  [" << p.name << "] sweep done in " << ms << " ms\n";
    auto& dst = fig.add_series(p.name);
    for (std::size_t i = 0; i < series.size(); ++i)
      dst.add(series.x(i), series.y(i), series.ci(i).value_or(0.0));
    if (series_out != nullptr) series_out->push_back(series);
  }
  return fig;
}

/// Print the figure, write its CSV, print shape checks; returns 0/1 exit
/// status (shape-check failures are reported but do not fail the binary —
/// they are stochastic at low replication counts).
inline int finish(const sim::Figure& fig, const std::string& csv_name,
                  const std::vector<core::ShapeCheck>& checks) {
  fig.print_table(std::cout);
  std::cout << '\n';
  try {
    core::write_csv(fig, csv_name);
    std::cout << "(csv written to " << csv_name << ")\n";
  } catch (const std::exception& e) {
    std::cout << "(csv not written: " << e.what() << ")\n";
  }
  core::print_shape_checks(std::cout, checks);
  return 0;
}

}  // namespace facsp::bench
