// FuzzyController: the complete FLC of paper Fig. 2 — fuzzifier, inference
// engine, fuzzy rule base and defuzzifier behind one crisp-in/crisp-out call.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fuzzy/defuzzifier.h"
#include "fuzzy/inference.h"
#include "fuzzy/rulebase.h"
#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// Full rule-firing explanation of one evaluation (rule_explorer example and
/// debugging).
struct Explanation {
  std::vector<FiredRule> fired;        ///< rules with strength > 0, descending
  std::vector<double> activations;     ///< one per output term
  double crisp = 0.0;                  ///< defuzzified output
  std::vector<std::string> rule_text;  ///< printable form of each fired rule
};

/// Crisp-in / crisp-out Mamdani fuzzy logic controller.
///
/// Owns its variables, rule base, inference engine and defuzzifier.  The
/// object is immutable after construction and safe to share across threads
/// for concurrent evaluate() calls.
class FuzzyController {
 public:
  /// `consequents` is the complete rule table, one output term name per
  /// combination of input terms (last input fastest).  Throws
  /// facsp::ConfigError when the table does not match the variables — see
  /// RuleBase — when the inputs exceed the inference bounds — see
  /// InferenceEngine — or when the output's terms do not admit the analytic
  /// centroid — see Defuzzifier.
  FuzzyController(std::string name, std::vector<LinguisticVariable> inputs,
                  LinguisticVariable output,
                  const std::vector<std::string>& consequents);

  FuzzyController(const FuzzyController&) = delete;
  FuzzyController& operator=(const FuzzyController&) = delete;
  FuzzyController(FuzzyController&&) = delete;
  FuzzyController& operator=(FuzzyController&&) = delete;

  /// Evaluate the controller for the crisp input vector (one entry per input
  /// variable, clamped to universes).  Returns the defuzzified output.
  /// Internally reuses a thread-local scratch arena, so steady-state calls
  /// perform zero heap allocations.
  double evaluate(std::span<const double> crisp_inputs) const;

  /// Convenience overload for initializer lists: evaluate({30.0, 0.0, 5.0}).
  double evaluate(std::initializer_list<double> crisp_inputs) const;

  /// Explicit-scratch form of evaluate(): all intermediate storage lives in
  /// `scratch`, which warms up on the first call and is then reused without
  /// further allocation.  One scratch may serve several controllers (e.g.
  /// the FLC1 -> FLC2 cascade) but must not be shared across threads.
  double evaluate_with(InferenceScratch& scratch,
                       std::span<const double> crisp_inputs) const;

  /// Batched evaluation: `crisp_inputs` holds out.size() rows of
  /// input_count() values each (row-major), `out` receives one crisp output
  /// per row.  One scratch is reused across the whole batch.
  void evaluate_batch(std::span<const double> crisp_inputs,
                      std::span<double> out) const;

  /// Explicit-scratch form of evaluate_batch(): rows are processed in
  /// structure-of-arrays blocks of InferenceEngine::kLanes through the lane
  /// kernel (4 doubles per vector operation when lane_simd_available(),
  /// else 2), then defuzzified per row.
  /// Each output is bit-identical to evaluate_with() on that row.  Zero heap
  /// allocations once `scratch` is warm.
  void evaluate_batch_with(InferenceScratch& scratch,
                           std::span<const double> crisp_inputs,
                           std::span<double> out) const;

  /// Evaluate and capture the full rule-firing explanation.
  Explanation explain(std::span<const double> crisp_inputs) const;

  const std::string& name() const noexcept { return name_; }
  std::size_t input_count() const noexcept { return inputs_.size(); }
  const std::vector<LinguisticVariable>& inputs() const noexcept {
    return inputs_;
  }
  const LinguisticVariable& input(std::size_t i) const;
  const LinguisticVariable& output() const noexcept { return output_; }
  const RuleBase& rules() const noexcept { return rules_; }
  const Defuzzifier& defuzzifier() const noexcept { return defuzz_; }

 private:
  std::string name_;
  std::vector<LinguisticVariable> inputs_;
  LinguisticVariable output_;
  RuleBase rules_;
  Defuzzifier defuzz_;
  // Engine references inputs_/output_/rules_, so it must be built last and
  // the controller is non-movable.
  std::unique_ptr<InferenceEngine> engine_;
};

}  // namespace facsp::fuzzy
