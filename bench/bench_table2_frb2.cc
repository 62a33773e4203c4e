// Reproduces paper Table 2 (FRB2, 27 rules) and renders the FLC2 decision
// surface: crisp A/R over the Cv x Cs grid for each request type.
#include <cstdio>
#include <iostream>

#include "cac/facs_flc.h"
#include "fuzzy/rule.h"

int main() {
  using namespace facsp;
  using namespace facsp::cac;

  std::cout << "=== Table 2 reproduction: FRB2 (27 rules) ===\n\n";
  const auto flc2 = shared_flc2();
  const auto& rules = flc2->rules();

  std::printf("%-5s %-4s %-4s %-4s %-5s\n", "Rule", "Cv", "Rq", "Cs", "A/R");
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const auto rule = rules.rule(r);
    std::printf("%-5zu %-4s %-4s %-4s %-5s\n", r,
                flc2->input(0).term(rule.antecedents[0]).name.c_str(),
                flc2->input(1).term(rule.antecedents[1]).name.c_str(),
                flc2->input(2).term(rule.antecedents[2]).name.c_str(),
                flc2->output().term(rule.consequent).name.c_str());
  }

  const auto& expected = frb2_consequents();
  bool verbatim = rules.size() == expected.size();
  for (std::size_t r = 0; verbatim && r < rules.size(); ++r)
    verbatim = flc2->output().term(rules.consequents()[r]).name ==
               expected[r];
  std::cout << "\nrule count: " << rules.size()
            << "  matches paper Table 2: " << (verbatim ? "yes" : "NO")
            << "\n\n";

  // Decision surface per request type: A/R x 100 over Cv x Cs.
  const char* req_names[] = {"text (1 BU)", "voice (5 BU)", "video (10 BU)"};
  const double req_sizes[] = {1.0, 5.0, 10.0};
  for (int k = 0; k < 3; ++k) {
    std::printf("FLC2 surface, Rq = %s (A/R x 100; >0 leans accept):\n       ",
                req_names[k]);
    for (int cs = 0; cs <= 40; cs += 5) std::printf("%6d", cs);
    std::printf("   <- Cs (BU)\n");
    for (double cv : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      std::printf("Cv=%.2f", cv);
      for (int cs = 0; cs <= 40; cs += 5) {
        const double ar =
            flc2->evaluate({cv, req_sizes[k], static_cast<double>(cs)});
        std::printf("%6.0f", 100.0 * ar);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  std::cout << "(decisions soften from Accept to Reject as the cell fills; "
               "wide requests are cut first)\n";
  return verbatim ? 0 : 1;
}
