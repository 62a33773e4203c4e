// Rule explorer: evaluate the paper's controllers at a chosen operating
// point and see exactly which fuzzy rules fired, how strongly, and what
// the defuzzified result is.
//
//   $ ./rule_explorer                      # guided demo points
//   $ ./rule_explorer flc1 <Sp> <An> <Sr>  # e.g. flc1 90 0 10
//   $ ./rule_explorer flc2 <Cv> <Rq> <Cs>  # e.g. flc2 0.8 5 25
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <vector>

#include "cac/facs_flc.h"
#include "core/config_io.h"

using namespace facsp;

namespace {

void explain_at(const fuzzy::FuzzyController& flc,
                const std::vector<double>& inputs) {
  std::printf("%s(", flc.name().c_str());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    std::printf("%s%s=%g", i ? ", " : "", flc.input(i).name().c_str(),
                inputs[i]);
  std::printf(")\n");

  const auto ex = flc.explain(inputs);
  if (ex.fired.empty()) {
    std::printf("  no rule fired (inputs outside every term support)\n");
    return;
  }
  std::printf("  fired rules (strength | rule):\n");
  for (std::size_t i = 0; i < ex.fired.size(); ++i)
    std::printf("   %5.2f | %s\n", ex.fired[i].strength,
                ex.rule_text[i].c_str());
  std::printf("  aggregated output activations:");
  for (std::size_t k = 0; k < ex.activations.size(); ++k)
    if (ex.activations[k] > 0.0)
      std::printf(" %s=%.2f", flc.output().term(k).name.c_str(),
                  ex.activations[k]);
  std::printf("\n  => crisp %s = %.3f\n\n", flc.output().name().c_str(),
              ex.crisp);
}

int run(int argc, char** argv) {
  const auto flc1 = cac::shared_flc1();
  const auto flc2 = cac::shared_flc2();

  if (argc == 5) {
    const std::vector<double> in = {core::parse_double(argv[2], "input 1"),
                                    core::parse_double(argv[3], "input 2"),
                                    core::parse_double(argv[4], "input 3")};
    if (std::strcmp(argv[1], "flc1") == 0) {
      explain_at(*flc1, in);
      return 0;
    }
    if (std::strcmp(argv[1], "flc2") == 0) {
      explain_at(*flc2, in);
      return 0;
    }
    std::fprintf(stderr, "unknown controller '%s' (flc1|flc2)\n", argv[1]);
    return 1;
  }
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: %s [flc1 Sp An Sr | flc2 Cv Rq Cs]\n", argv[0]);
    return 1;
  }

  std::cout << "FACS-P rule explorer — demo tour\n"
            << "================================\n\n";

  std::cout << "1. The dream customer: fast, heading straight in, voice.\n";
  explain_at(*flc1, {100.0, 0.0, 5.0});

  std::cout << "2. The hopeless case: slow, heading away, text.\n";
  explain_at(*flc1, {4.0, 170.0, 1.0});

  std::cout << "3. Boundary blend: between Middle and Fast, between\n"
               "   Straight and Right1 — four rule groups share the vote.\n";
  explain_at(*flc1, {90.0, 22.5, 5.0});

  std::cout << "4. Admission at half load: good correction, voice call.\n";
  explain_at(*flc2, {0.8, 5.0, 20.0});

  std::cout << "5. Admission when nearly full: same call, cell at 35/40.\n";
  explain_at(*flc2, {0.8, 5.0, 35.0});

  std::cout << "6. The paper's deliberate quirk: a *well-predicted* video\n"
               "   call into a full cell is hard-Rejected (Go Vi Fu = R) —\n"
               "   it would actually stay and starve everyone.\n";
  explain_at(*flc2, {0.95, 10.0, 40.0});

  std::cout << "Try your own points: rule_explorer flc1 90 45 10\n";
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
