// Fuzzy IF-THEN rules.
//
// A rule pairs one antecedent term index per input variable with a
// consequent term index on the output variable, e.g. paper Table 1 rule 0:
// IF Sp is Sl AND An is B1 AND Sr is Sm THEN Cv is Cv1.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace facsp::fuzzy {

class LinguisticVariable;

/// One conjunctive (AND) fuzzy rule of a complete rule table.
struct FuzzyRule {
  /// Term index into the i-th input variable's term list.
  std::vector<std::size_t> antecedents;
  /// Term index into the output variable's term list.
  std::size_t consequent = 0;
};

/// Render a rule as "IF Sp is Sl AND An is B1 AND Sr is Sm THEN Cv is Cv1".
/// `inputs` and `output` supply the variable/term names.
std::string to_string(const FuzzyRule& rule,
                      const std::vector<LinguisticVariable>& inputs,
                      const LinguisticVariable& output);

}  // namespace facsp::fuzzy
