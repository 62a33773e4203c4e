// Fluent builders for linguistic variables and controllers.
//
// Example:
//   auto speed = VariableBuilder("Sp", 0, 120)
//                    .triangular("Sl", 0, 60, 60)      // clamped left edge
//                    .triangular("Mi", 60, 60, 60)
//                    .right_shoulder("Fa", 120, 60)
//                    .build();
//   auto flc = ControllerBuilder("demo")
//                  .input(speed).input(angle).input(service)
//                  .output(correction)
//                  .rule_table({"Cv1", "Cv1", ...})  // 63 consequents, as
//                  .build();                         // in paper Table 1
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fuzzy/controller.h"
#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// Incrementally assembles a LinguisticVariable.
class VariableBuilder {
 public:
  VariableBuilder(std::string name, double universe_lo, double universe_hi);

  /// Paper's f(x; center, left_width, right_width).
  VariableBuilder& triangular(std::string term, double center,
                              double left_width, double right_width);
  /// Paper's g(x; plateau_lo, plateau_hi, left_width, right_width).
  VariableBuilder& trapezoidal(std::string term, double plateau_lo,
                               double plateau_hi, double left_width,
                               double right_width);
  /// Plateau from the universe's low edge up to plateau_hi.
  VariableBuilder& left_shoulder(std::string term, double plateau_hi,
                                 double right_width);
  /// Plateau from plateau_lo up to the universe's high edge.
  VariableBuilder& right_shoulder(std::string term, double plateau_lo,
                                  double left_width);
  /// Arbitrary membership function.
  VariableBuilder& term(std::string term, MembershipFunction mf);

  /// Evenly spaced triangular partition with `count` terms named
  /// prefix1..prefixN; first/last become shoulders so the universe is fully
  /// covered (used for the Cv1..Cv9 output in FLC1).  Each term's support
  /// ends exactly at its neighbours' centres.
  VariableBuilder& uniform_partition(const std::string& prefix, int count);

  /// Validates and constructs the variable (throws facsp::ConfigError).
  LinguisticVariable build() const;

 private:
  std::string name_;
  double lo_, hi_;
  std::vector<LinguisticTerm> terms_;
};

/// Incrementally assembles a FuzzyController.
class ControllerBuilder {
 public:
  explicit ControllerBuilder(std::string name);

  ControllerBuilder& input(LinguisticVariable v);
  ControllerBuilder& output(LinguisticVariable v);

  /// Set the complete rule table: one output term name per combination of
  /// input terms, last input varying fastest, as the paper's Table 1 /
  /// Table 2 are printed (see RuleBase).
  ControllerBuilder& rule_table(std::vector<std::string> consequents);

  /// Validates and constructs the controller (throws facsp::ConfigError if
  /// no output or rule table was set, or validation fails — the table's
  /// size and names, the inference bounds and the output's terms, see
  /// RuleBase, InferenceEngine and Defuzzifier).
  std::unique_ptr<FuzzyController> build();

 private:
  std::string name_;
  std::vector<LinguisticVariable> inputs_;
  std::vector<LinguisticVariable> output_;  // 0 or 1 elements
  std::vector<std::string> consequents_;
};

}  // namespace facsp::fuzzy
