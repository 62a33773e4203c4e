#include "fuzzy/inference.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::fuzzy {

InferenceEngine::InferenceEngine(const std::vector<LinguisticVariable>& inputs,
                                 const LinguisticVariable& output,
                                 const RuleBase& rules)
    : inputs_(inputs), output_(output), rules_(rules) {
  FACSP_EXPECTS(!inputs_.empty());
  FACSP_EXPECTS(rules_.input_count() == inputs_.size());
  FACSP_EXPECTS(rules_.output_term_count() == output_.term_count());
  if (inputs_.size() > kMaxInputs)
    throw ConfigError("inference: " + std::to_string(inputs_.size()) +
                      " inputs, more than " + std::to_string(kMaxInputs));
  for (const auto& in : inputs_)
    if (in.term_count() > kMaxTerms)
      throw ConfigError("inference: input '" + in.name() + "' has " +
                        std::to_string(in.term_count()) +
                        " terms, more than " + std::to_string(kMaxTerms));
  grade_offsets_.reserve(inputs_.size());
  for (const auto& in : inputs_) {
    grade_offsets_.push_back(total_grades_);
    total_grades_ += in.term_count();
  }

  // Each rule's antecedent grade slots, in input order: the lane kernel
  // folds grades through these instead of decoding every rule index.
  rule_slots_.reserve(rules_.size() * inputs_.size());
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const FuzzyRule rule = rules_.rule(r);
    for (std::size_t i = 0; i < rule.antecedents.size(); ++i)
      rule_slots_.push_back(
          static_cast<std::uint32_t>(grade_offsets_[i] + rule.antecedents[i]));
  }

  // Snapshot per-term geometry for the lane fuzzifier.  ba/dc are the exact
  // doubles grade() divides by, so the lane kernels perform bit-identical
  // divisions; degenerate shapes (singletons, zero-width edges) are flagged
  // for the scalar per-lane fallback.
  lane_terms_.reserve(total_grades_);
  for (const LinguisticVariable& v : inputs_) {
    for (std::size_t t = 0; t < v.term_count(); ++t) {
      const MembershipFunction& mf = v.term(t).mf;
      LaneTerm lt;
      lt.mf = &mf;
      lt.lo = v.universe_lo();
      lt.hi = v.universe_hi();
      lt.a = mf.a();
      lt.d = mf.d();
      lt.left_open = mf.b() == -kInf;
      lt.right_open = mf.c() == kInf;
      lt.ba = lt.left_open ? 1.0 : mf.b() - mf.a();
      lt.dc = lt.right_open ? 1.0 : mf.d() - mf.c();
      const bool zero_rise = std::isfinite(mf.b()) && !(mf.a() < mf.b());
      const bool zero_fall = std::isfinite(mf.c()) && !(mf.c() < mf.d());
      lt.fast = !mf.is_singleton() && !zero_rise && !zero_fall;
      lane_terms_.push_back(lt);
    }
  }
}

template <bool kTraced>
void InferenceEngine::run(std::span<const double> crisp_inputs,
                          InferenceScratch& scratch) const {
  FACSP_EXPECTS_MSG(crisp_inputs.size() == inputs_.size(),
                    "expected " << inputs_.size() << " inputs, got "
                                << crisp_inputs.size());
  // Fuzzify every input once into the flat arena; rules then look grades up
  // by offset.  resize()/assign() reuse capacity, so a warm scratch never
  // touches the heap.
  scratch.grades.resize(total_grades_);
  double* const grades = scratch.grades.data();
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    inputs_[i].fuzzify_into(
        crisp_inputs[i],
        std::span<double>(grades + grade_offsets_[i],
                          inputs_[i].term_count()));

  scratch.activations.assign(output_.term_count(), 0.0);
  if constexpr (kTraced) scratch.fired.clear();

  // Sparse-fire enumeration: a rule fires only when every antecedent grade
  // is non-zero (its strength is their min), so walk just the cross product
  // of each input's non-zero terms, in table order (last input fastest).
  // Adjacent-overlap partitions (every paper variable) activate at most two
  // terms per input, so FRB1 evaluates at most 8 of its 63 rules.  Skipping
  // a rule with a zero grade cannot change an activation: its strength is
  // exactly 0 and max aggregation ignores it.
  std::uint32_t nz[kMaxInputs][kMaxTerms];
  std::uint32_t nz_count[kMaxInputs];
  const std::size_t n = inputs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double* const g = grades + grade_offsets_[i];
    std::uint32_t c = 0;
    for (std::size_t t = 0; t < inputs_[i].term_count(); ++t)
      if (g[t] > 0.0) nz[i][c++] = static_cast<std::uint32_t>(t);
    if (c == 0) return;  // an all-zero input: no rule fires
    nz_count[i] = c;
  }
  const std::span<const std::size_t> consequents = rules_.consequents();
  std::uint32_t pos[kMaxInputs] = {};
  for (;;) {
    std::size_t idx = 0;
    double strength = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t t = nz[i][pos[i]];
      idx = idx * inputs_[i].term_count() + t;
      strength = std::min(strength, grades[grade_offsets_[i] + t]);
    }
    double& acc = scratch.activations[consequents[idx]];
    acc = acc > strength ? acc : strength;
    if constexpr (kTraced) scratch.fired.push_back({idx, strength});
    std::size_t i = n - 1;
    while (++pos[i] == nz_count[i]) {
      pos[i] = 0;
      if (i == 0) return;
      --i;
    }
  }
}

void InferenceEngine::infer_into(std::span<const double> crisp_inputs,
                                 InferenceScratch& scratch) const {
  run<false>(crisp_inputs, scratch);
}

void InferenceEngine::infer_traced_into(std::span<const double> crisp_inputs,
                                        InferenceScratch& scratch) const {
  run<true>(crisp_inputs, scratch);
  std::sort(scratch.fired.begin(), scratch.fired.end(),
            [](const FiredRule& a, const FiredRule& b) {
              return a.strength > b.strength;
            });
}

}  // namespace facsp::fuzzy
