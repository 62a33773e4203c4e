// facsp_perfbench: runs one benchmark workload and prints its result as the
// last line of standard output (one JSON object: correct, attempted, failed,
// metrics).  Progress and failure reasons go to standard error.
//
//   facsp_perfbench --workload serve-admit|wire-saturated|multicell-storm
//                   --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--expect-admitted N]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes DIR/<workload>.trace.json.  --expect-admitted makes every
// pass's admitted count match N (the self-test uses a wrong N to prove the
// gate fails).  Exit status: 0 when every correctness check passed, 1 when
// one failed, 2 on a usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "facsp_perfbench: %s\n"
               "usage: facsp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--expect-admitted N]\n"
               "workloads: serve-admit wire-saturated multicell-storm\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A server-side close between a write and a read must surface as EPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  perfbench::RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--out-dir") opt.out_dir = value;
      else if (flag == "--expect-admitted") opt.expect_admitted = std::stoll(value);
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }

  perfbench::Outcome (*run)(const perfbench::RunOptions&) = nullptr;
  if (workload == "serve-admit") run = perfbench::run_serve_admit;
  else if (workload == "wire-saturated") run = perfbench::run_wire_saturated;
  else if (workload == "multicell-storm") run = perfbench::run_multicell_storm;
  else return usage(("unknown workload '" + workload + "'").c_str());

  perfbench::Outcome outcome;
  try {
    if (opt.trace) std::filesystem::create_directories(opt.out_dir);
    outcome = run(opt);
  } catch (const std::exception& e) {
    outcome.fail(std::string("exception: ") + e.what());
    outcome.attempted = std::max<std::uint64_t>(outcome.attempted, 1);
    outcome.failed = outcome.attempted;
  }
  for (const std::string& why : outcome.failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  std::fflush(stderr);
  std::printf("%s\n", perfbench::to_json(outcome).c_str());
  return outcome.correct ? 0 : 1;
}
