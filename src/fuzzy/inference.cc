#include "fuzzy/inference.h"

#include <algorithm>
#include <cmath>

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
  grade_offsets_.reserve(inputs_.size());
  for (const auto& in : inputs_) {
    grade_offsets_.push_back(total_grades_);
    total_grades_ += in.term_count();
  }

  // Flatten the rule base: the hot loops then walk two contiguous arrays
  // instead of chasing one std::vector per rule.  Wildcard antecedents are
  // dropped here, preserving the remaining antecedents' relative order, so
  // the fold over grades is the exact sequence run() always performed.
  flat_rules_.reserve(rules_.size());
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const FuzzyRule& rule = rules_.rule(r);
    FlatRule fr;
    fr.first = static_cast<std::uint32_t>(rule_slots_.size());
    for (std::size_t i = 0; i < rule.antecedents.size(); ++i) {
      const std::size_t a = rule.antecedents[i];
      if (a == FuzzyRule::kAny) continue;
      rule_slots_.push_back(static_cast<std::uint32_t>(grade_offsets_[i] + a));
    }
    fr.count = static_cast<std::uint32_t>(rule_slots_.size()) - fr.first;
    fr.consequent = static_cast<std::uint32_t>(rule.consequent);
    fr.weight = rule.weight;
    flat_rules_.push_back(fr);
  }

  // Sparse-fire fast path: with a wildcard-free, duplicate-free rule table,
  // run() can enumerate only the antecedent-term combinations whose grades
  // are all non-zero and look each rule up in a dense tuple-indexed table.
  // Adjacent-overlap partitions (every paper variable) activate at most two
  // terms per input, so e.g. FRB1 fires at most 8 of its 63 rules per
  // evaluation.  This is bit-identical to the linear scan: max aggregation
  // is exactly order-independent, and a rule with any zero antecedent grade
  // has exactly zero strength under min, so skipping it cannot change an
  // activation.
  std::size_t tuple_count = 1;
  dense_ok_ = inputs_.size() <= kMaxDenseInputs;
  for (const auto& in : inputs_) {
    dense_ok_ = dense_ok_ && in.term_count() <= kMaxDenseTerms;
    tuple_count *= in.term_count();
  }
  if (dense_ok_ && tuple_count <= 4096) {
    dense_rules_.assign(tuple_count, DenseRule{});
    for (std::size_t r = 0; r < rules_.size() && dense_ok_; ++r) {
      const FuzzyRule& rule = rules_.rule(r);
      std::size_t idx = 0;
      for (std::size_t i = 0; i < rule.antecedents.size(); ++i) {
        if (rule.antecedents[i] == FuzzyRule::kAny) {
          dense_ok_ = false;
          break;
        }
        idx = idx * inputs_[i].term_count() + rule.antecedents[i];
      }
      if (!dense_ok_) break;
      if (dense_rules_[idx].consequent >= 0) {
        dense_ok_ = false;  // duplicate tuple: scan preserves both firings
        break;
      }
      dense_rules_[idx].consequent = static_cast<std::int32_t>(rule.consequent);
      dense_rules_[idx].weight = rule.weight;
    }
  } else {
    dense_ok_ = false;
  }
  if (!dense_ok_) dense_rules_.clear();

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

void InferenceEngine::run(std::span<const double> crisp_inputs,
                          InferenceScratch& scratch,
                          std::vector<FiredRule>* fired) const {
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
  if (fired != nullptr) fired->clear();

  // Sparse-fire fast path (see ctor): enumerate only the cross product of
  // non-zero-grade terms per input and index the dense rule table.  The
  // traced path keeps the scan so fired-rule order stays stable.
  if (dense_ok_ && fired == nullptr) {
    std::uint32_t nz[kMaxDenseInputs][kMaxDenseTerms];
    std::uint32_t nz_count[kMaxDenseInputs];
    const std::size_t n = inputs_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double* const g = grades + grade_offsets_[i];
      std::uint32_t c = 0;
      for (std::size_t t = 0; t < inputs_[i].term_count(); ++t)
        if (g[t] > 0.0) nz[i][c++] = static_cast<std::uint32_t>(t);
      if (c == 0) return;  // an all-zero input: no wildcard-free rule fires
      nz_count[i] = c;
    }
    std::uint32_t pos[kMaxDenseInputs] = {};
    for (;;) {
      std::size_t idx = 0;
      double strength = 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t t = nz[i][pos[i]];
        idx = idx * inputs_[i].term_count() + t;
        strength = std::min(strength, grades[grade_offsets_[i] + t]);
      }
      const DenseRule& dr = dense_rules_[idx];
      if (dr.consequent >= 0) {
        strength *= dr.weight;
        if (strength > 0.0) {
          double& acc =
              scratch.activations[static_cast<std::size_t>(dr.consequent)];
          acc = acc > strength ? acc : strength;
        }
      }
      std::size_t i = n - 1;
      while (++pos[i] == nz_count[i]) {
        pos[i] = 0;
        if (i == 0) return;
        --i;
      }
    }
  }

  const std::uint32_t* const slots = rule_slots_.data();
  for (std::size_t r = 0; r < flat_rules_.size(); ++r) {
    const FlatRule& rule = flat_rules_[r];
    double strength = 1.0;
    for (std::uint32_t i = 0; i < rule.count && strength > 0.0; ++i)
      strength = std::min(strength, grades[slots[rule.first + i]]);
    strength *= rule.weight;
    if (strength <= 0.0) continue;
    if (fired != nullptr) fired->push_back({r, strength});
    double& acc = scratch.activations[rule.consequent];
    acc = acc > strength ? acc : strength;
  }

  if (fired != nullptr)
    std::sort(fired->begin(), fired->end(),
              [](const FiredRule& a, const FiredRule& b) {
                return a.strength > b.strength;
              });
}

void InferenceEngine::infer_into(std::span<const double> crisp_inputs,
                                 InferenceScratch& scratch) const {
  run(crisp_inputs, scratch, nullptr);
}

void InferenceEngine::infer_traced_into(std::span<const double> crisp_inputs,
                                        InferenceScratch& scratch) const {
  run(crisp_inputs, scratch, &scratch.fired);
}

}  // namespace facsp::fuzzy
