// Downtown, Saturday afternoon: every cell of a 19-cell network is loaded
// with the paper's 70/20/10 text/voice/video mix.  Compares FACS-P against
// a classical guard channel and plain complete sharing on the metrics an
// operator actually watches: per-service acceptance, handoff drops, and
// cell utilization.
//
//   $ ./downtown_mixed_traffic [N] [replications]
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
  const int n = argc > 1 ? core::parse_int(argv[1], "N") : 60;
  const int reps = argc > 2 ? core::parse_int(argv[2], "replications") : 8;
  if (n < 1 || reps < 1)
    throw ConfigError("N and replications must be >= 1");

  std::cout << "Downtown mixed traffic — 19 cells, " << n
            << " requesting connections per cell\n"
            << "=====================================================\n\n";

  auto scenario = core::paper_scenario();
  scenario.rings = 2;                 // 19 cells
  scenario.spatial.kind = workload::SpatialKind::kUniform; // everyone is busy downtown

  struct Candidate {
    const char* label;
    core::PolicyFactory factory;
  };
  const Candidate candidates[] = {
      {"FACS-P", core::make_facs_p_factory()},
      {"guard channel (8 BU)", core::make_guard_channel_factory(8.0)},
      {"complete sharing", core::make_complete_sharing_factory()},
  };

  std::printf("%-22s %8s %8s %8s %8s %9s %8s\n", "policy", "accept%",
              "text%", "voice%", "video%", "drop%", "util%");
  for (const auto& cand : candidates) {
    core::Experiment exp(scenario, cand.factory);
    sim::SummaryStats accept, text, voice, video, drop, util;
    for (int rep = 0; rep < reps; ++rep) {
      const auto run = exp.run_single(n, rep);
      accept.add(run.metrics.acceptance_percent());
      text.add(run.metrics.acceptance_percent(cellular::ServiceClass::kText));
      voice.add(
          run.metrics.acceptance_percent(cellular::ServiceClass::kVoice));
      video.add(
          run.metrics.acceptance_percent(cellular::ServiceClass::kVideo));
      drop.add(100.0 * run.metrics.dropping_probability());
      util.add(100.0 * run.center_utilization);
    }
    std::printf("%-22s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.2f%% %7.1f%%\n",
                cand.label, accept.mean(), text.mean(), voice.mean(),
                video.mean(), drop.mean(), util.mean());
  }

  std::cout <<
      "\nReading: complete sharing squeezes in the most new calls but\n"
      "drops on-going ones at handoff; the guard channel protects\n"
      "handoffs with a blunt reservation; FACS-P gets comparable\n"
      "protection while shaping *which* calls are refused (wide video\n"
      "requests from poorly-predicted users go first, text almost\n"
      "never).  That selectivity is the point of the fuzzy pipeline.\n";
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
