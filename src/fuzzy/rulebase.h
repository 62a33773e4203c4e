// Fuzzy Rule Base (FRB): the complete rule table of one controller.
//
// Paper Sec. 3.1: "The FRB forms a fuzzy set of dimensions
// |T(Sp)| x |T(An)| x |T(Sr)|" — a complete table with one rule per
// combination of input terms (FRB1: 63 rules, FRB2: 27 rules).  That is the
// only form a RuleBase takes: rule i is the i-th combination with the last
// input varying fastest, so the table stores one consequent per rule and is
// complete and conflict-free by construction.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "fuzzy/rule.h"
#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// Immutable complete rule table tied to a fixed set of input variables and
/// one output variable (held by the controller; the rule base stores only
/// term counts and consequent indices).
class RuleBase {
 public:
  /// Builds the table from one output term name per combination of input
  /// terms, last input varying fastest — exactly the row order of the
  /// paper's Table 1/Table 2.  Throws facsp::ConfigError when there is no
  /// input, when the name count is not the product of the inputs' term
  /// counts, or when a name is not a term of `output`.
  RuleBase(const std::vector<LinguisticVariable>& inputs,
           const LinguisticVariable& output,
           const std::vector<std::string>& consequent_names);

  /// Number of rules: the product of the inputs' term counts.
  std::size_t size() const noexcept { return consequents_.size(); }
  std::size_t input_count() const noexcept { return term_counts_.size(); }
  std::size_t output_term_count() const noexcept { return output_term_count_; }

  /// Output term index of every rule, in table order.
  std::span<const std::size_t> consequents() const noexcept {
    return consequents_;
  }

  /// Rule i, its antecedents decoded from the table index.
  FuzzyRule rule(std::size_t i) const;

 private:
  std::vector<std::size_t> term_counts_;
  std::vector<std::size_t> consequents_;
  std::size_t output_term_count_;
};

}  // namespace facsp::fuzzy
