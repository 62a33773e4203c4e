// Reproduces paper Table 1 (FRB1, 63 rules) and renders the resulting FLC1
// control surface so the table's effect is visible: Cv over the Sp x An
// grid for each service size.
#include <cstdio>
#include <iostream>

#include "cac/facs_flc.h"
#include "fuzzy/rule.h"

int main() {
  using namespace facsp;
  using namespace facsp::cac;

  std::cout << "=== Table 1 reproduction: FRB1 (63 rules) ===\n\n";
  const auto flc1 = shared_flc1();
  const auto& rules = flc1->rules();

  // Print the rule base exactly as the paper tabulates it.
  std::printf("%-5s %-4s %-4s %-4s %-4s\n", "Rule", "Sp", "An", "Sr", "Cv");
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const auto rule = rules.rule(r);
    std::printf("%-5zu %-4s %-4s %-4s %-4s\n", r,
                flc1->input(0).term(rule.antecedents[0]).name.c_str(),
                flc1->input(1).term(rule.antecedents[1]).name.c_str(),
                flc1->input(2).term(rule.antecedents[2]).name.c_str(),
                flc1->output().term(rule.consequent).name.c_str());
  }

  // Verify against the paper's transcription.
  const auto& expected = frb1_consequents();
  bool verbatim = rules.size() == expected.size();
  for (std::size_t r = 0; verbatim && r < rules.size(); ++r)
    verbatim = flc1->output().term(rules.consequents()[r]).name ==
               expected[r];
  std::cout << "\nrule count: " << rules.size()
            << "  matches paper Table 1: " << (verbatim ? "yes" : "NO")
            << "\n\n";

  // Control surface: crisp Cv on a Sp x An grid, one block per request size.
  for (double sr : {1.0, 5.0, 10.0}) {
    std::printf("FLC1 surface, Sr = %.0f BU (Cv x 100):\n        ", sr);
    for (int an = -180; an <= 180; an += 45) std::printf("%7d", an);
    std::printf("   <- An (deg)\n");
    for (double sp : {0.0, 30.0, 60.0, 90.0, 120.0}) {
      std::printf("Sp=%4.0f ", sp);
      for (int an = -180; an <= 180; an += 45) {
        const double cv =
            flc1->evaluate({sp, static_cast<double>(an), sr});
        std::printf("%7.0f", 100.0 * cv);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  std::cout << "(surface peaks at An=0 and grows with speed — the rule "
               "base rewards predictable, inbound users)\n";
  return verbatim ? 0 : 1;
}
