#include "fuzzy/rulebase.h"

#include "common/error.h"
#include "common/expects.h"

namespace facsp::fuzzy {

RuleBase::RuleBase(const std::vector<LinguisticVariable>& inputs,
                   const LinguisticVariable& output,
                   const std::vector<std::string>& consequent_names)
    : output_term_count_(output.term_count()) {
  if (inputs.empty())
    throw ConfigError("rule base: at least one input variable required");
  std::size_t total = 1;
  term_counts_.reserve(inputs.size());
  for (const auto& v : inputs) {
    term_counts_.push_back(v.term_count());
    total *= v.term_count();
  }
  if (consequent_names.size() != total)
    throw ConfigError("rule base table: expected " + std::to_string(total) +
                      " consequents, got " +
                      std::to_string(consequent_names.size()));
  consequents_.reserve(total);
  for (const auto& name : consequent_names)
    consequents_.push_back(output.term_index(name));
}

FuzzyRule RuleBase::rule(std::size_t i) const {
  FACSP_EXPECTS(i < consequents_.size());
  FuzzyRule r;
  r.consequent = consequents_[i];
  r.antecedents.resize(term_counts_.size());
  // Mixed-radix digits of i, last input fastest.
  for (std::size_t k = term_counts_.size(); k-- > 0;) {
    r.antecedents[k] = i % term_counts_[k];
    i /= term_counts_[k];
  }
  return r;
}

}  // namespace facsp::fuzzy
