// Handoff storm: a fleet of fast vehicles sweeps across a loaded 19-cell
// network, generating continuous handoff pressure.  Measures how each CAC
// policy protects on-going connections (dropping probability, completion
// ratio) and what that protection costs in new-call acceptance.
//
//   $ ./handoff_storm [N] [replications]
#include <cstdio>
#include <exception>
#include <iostream>

#include "common/error.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "core/paper.h"

using namespace facsp;

namespace {

int run(int argc, char** argv) {
  const int n = argc > 1 ? core::parse_int(argv[1], "N") : 50;
  const int reps = argc > 2 ? core::parse_int(argv[2], "replications") : 8;
  if (n < 1 || reps < 1)
    throw ConfigError("N and replications must be >= 1");

  std::cout << "Handoff storm — " << n
            << " fast connections per cell, 19 cells\n"
            << "==================================================\n\n";

  auto scenario = core::paper_scenario();
  scenario.rings = 2;
  scenario.spatial.kind = workload::SpatialKind::kUniform;
  scenario.traffic.fixed_speed_kmh = 100.0;  // everyone is on the move
  scenario.traffic.mean_holding_s = 360.0;   // long calls -> many handoffs

  struct Candidate {
    const char* label;
    core::PolicyFactory factory;
  };
  const Candidate candidates[] = {
      {"FACS-P", core::make_facs_p_factory()},
      {"FACS", core::make_facs_factory()},
      {"guard channel (8 BU)", core::make_guard_channel_factory(8.0)},
      {"complete sharing", core::make_complete_sharing_factory()},
  };

  std::printf("%-22s %9s %11s %9s %11s\n", "policy", "accept%",
              "handoffs/call", "drop%", "completed%");
  for (const auto& cand : candidates) {
    core::Experiment exp(scenario, cand.factory);
    sim::SummaryStats accept, handoffs_per_call, drop, completed;
    for (int rep = 0; rep < reps; ++rep) {
      const auto run = exp.run_single(n, rep);
      accept.add(run.metrics.acceptance_percent());
      if (run.metrics.accepted_new() > 0)
        handoffs_per_call.add(
            static_cast<double>(run.metrics.handoff_attempts()) /
            static_cast<double>(run.metrics.accepted_new()));
      drop.add(100.0 * run.metrics.dropping_probability());
      completed.add(100.0 * run.metrics.completion_ratio());
    }
    std::printf("%-22s %8.1f%% %11.2f %8.2f%% %10.1f%%\n", cand.label,
                accept.mean(), handoffs_per_call.mean(), drop.mean(),
                completed.mean());
  }

  std::cout <<
      "\nReading: the storm exposes the paper's core trade-off.  Complete\n"
      "sharing admits greedily and pays in dropped on-going calls; the\n"
      "guard channel and the fuzzy controllers shift refusals to call\n"
      "setup where they hurt least.  FACS-P's RTC/NRTC priority plus its\n"
      "handoff bonus keep the completion ratio of admitted calls at the\n"
      "top of the table — 'keeping the QoS of on-going connections'.\n";
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
