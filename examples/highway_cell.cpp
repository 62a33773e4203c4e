// Highway cell: the motivating workload behind Fig. 8.
//
// A base station covers a stretch of highway (fast, directionally stable
// vehicles) and a shopping street (slow pedestrians whose headings
// wander).  We run both populations through FACS-P at increasing load and
// show why the controller favours the highway: vehicle trajectories are
// predictable, so admitted bandwidth stays useful.
//
//   $ ./highway_cell [replications]
#include <cstdio>
#include <exception>
#include <iostream>
#include <utility>

#include "common/error.h"
#include "core/config_io.h"
#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"

using namespace facsp;

namespace {

int run(int argc, char** argv) {
  const int reps = argc > 1 ? core::parse_int(argv[1], "replications") : 12;
  if (reps < 1) throw ConfigError("replications must be >= 1");

  std::cout << "Highway cell vs pedestrian street (FACS-P)\n"
            << "===========================================\n\n";

  struct Population {
    const char* label;
    double speed_kmh;
  };
  const Population populations[] = {
      {"pedestrians (4 km/h)", 4.0},
      {"cyclists (15 km/h)", 15.0},
      {"city cars (50 km/h)", 50.0},
      {"highway (100 km/h)", 100.0},
  };

  sim::Figure fig("acceptance by population", "N",
                  "percentage of accepted calls");
  std::printf("%-22s %10s %10s %10s\n", "population", "accept@40",
              "accept@100", "drop%@100");
  for (const auto& pop : populations) {
    core::SweepSpec spec;
    spec.base = core::paper_scenario_fixed_speed(pop.speed_kmh);
    spec.policy_axis(
        {core::PolicyChoice{pop.label, core::make_facs_p_factory()}});
    spec.n_axis({20, 40, 60, 80, 100});
    spec.replications = reps;
    spec.threads = 1;
    const auto table = core::SweepRunner(std::move(spec)).run();
    const auto acc = core::metric_series(
        table, &core::ResultRow::acceptance_percent, pop.label);
    const auto drop = core::metric_series(
        table, &core::ResultRow::dropping_percent, pop.label);
    std::printf("%-22s %9.1f%% %9.1f%% %9.2f%%\n", pop.label, acc.y_at(40),
                acc.y_at(100), drop.y_at(100));
    auto& dst = fig.add_series(pop.label);
    for (std::size_t i = 0; i < acc.size(); ++i)
      dst.add(acc.x(i), acc.y(i));
  }

  std::cout << '\n';
  fig.print_table(std::cout);

  std::cout <<
      "\nReading: at every load level the faster population is admitted\n"
      "more — their direction cannot change easily, the base station's\n"
      "angle prediction is trustworthy, and bandwidth goes to users who\n"
      "actually stay in (or pass predictably through) the cell.  This is\n"
      "the paper's Fig. 8 conclusion on a realistic mixed deployment.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
