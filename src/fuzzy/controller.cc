#include "fuzzy/controller.h"

#include <algorithm>
#include <utility>

#include "common/expects.h"

namespace facsp::fuzzy {

FuzzyController::FuzzyController(std::string name,
                                 std::vector<LinguisticVariable> inputs,
                                 LinguisticVariable output,
                                 const std::vector<std::string>& consequents)
    : name_(std::move(name)),
      inputs_(std::move(inputs)),
      output_(std::move(output)),
      rules_(inputs_, output_, consequents),
      defuzz_(output_),
      engine_(std::make_unique<InferenceEngine>(inputs_, output_, rules_)) {}

double FuzzyController::evaluate(std::span<const double> crisp_inputs) const {
  static thread_local InferenceScratch scratch;
  return evaluate_with(scratch, crisp_inputs);
}

double FuzzyController::evaluate(
    std::initializer_list<double> crisp_inputs) const {
  return evaluate(std::span<const double>(crisp_inputs.begin(),
                                          crisp_inputs.size()));
}

double FuzzyController::evaluate_with(
    InferenceScratch& scratch, std::span<const double> crisp_inputs) const {
  engine_->infer_into(crisp_inputs, scratch);
  return defuzz_.defuzzify(scratch.activations, output_);
}

void FuzzyController::evaluate_batch(std::span<const double> crisp_inputs,
                                     std::span<double> out) const {
  FACSP_EXPECTS_MSG(crisp_inputs.size() == out.size() * inputs_.size(),
                    "batch of " << out.size() << " rows needs "
                                << out.size() * inputs_.size()
                                << " inputs, got " << crisp_inputs.size());
  static thread_local InferenceScratch scratch;
  evaluate_batch_with(scratch, crisp_inputs, out);
}

void FuzzyController::evaluate_batch_with(InferenceScratch& scratch,
                                          std::span<const double> crisp_inputs,
                                          std::span<double> out) const {
  FACSP_EXPECTS_MSG(crisp_inputs.size() == out.size() * inputs_.size(),
                    "batch of " << out.size() << " rows needs "
                                << out.size() * inputs_.size()
                                << " inputs, got " << crisp_inputs.size());
  constexpr std::size_t W = InferenceEngine::kLanes;
  const std::size_t stride = inputs_.size();
  const std::size_t terms = output_.term_count();
  for (std::size_t r0 = 0; r0 < out.size(); r0 += W) {
    const std::size_t rows = std::min(W, out.size() - r0);
    engine_->infer_batch_into(crisp_inputs.subspan(r0 * stride, rows * stride),
                              rows, scratch);
    // Defuzzification stays scalar: gather each lane's activations back into
    // the per-evaluation buffer (same values infer_into() would produce).
    scratch.activations.resize(terms);
    for (std::size_t l = 0; l < rows; ++l) {
      for (std::size_t k = 0; k < terms; ++k)
        scratch.activations[k] = scratch.lane_activations[k * W + l];
      out[r0 + l] = defuzz_.defuzzify(scratch.activations, output_);
    }
  }
}

Explanation FuzzyController::explain(
    std::span<const double> crisp_inputs) const {
  InferenceScratch scratch;
  engine_->infer_traced_into(crisp_inputs, scratch);
  Explanation ex;
  ex.fired = std::move(scratch.fired);
  ex.activations = std::move(scratch.activations);
  ex.crisp = defuzz_.defuzzify(ex.activations, output_);
  ex.rule_text.reserve(ex.fired.size());
  for (const auto& f : ex.fired)
    ex.rule_text.push_back(to_string(rules_.rule(f.rule_index), inputs_,
                                     output_));
  return ex;
}

const LinguisticVariable& FuzzyController::input(std::size_t i) const {
  FACSP_EXPECTS(i < inputs_.size());
  return inputs_[i];
}

}  // namespace facsp::fuzzy
