#include "fuzzy/inference.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"

#include "fuzzy/builder.h"

namespace facsp::fuzzy {
namespace {

struct InferenceFixture : ::testing::Test {
  std::vector<LinguisticVariable> inputs;
  LinguisticVariable output = VariableBuilder("z", 0.0, 1.0)
                                  .left_shoulder("small", 0.25, 0.5)
                                  .triangular("mid", 0.5, 0.25, 0.25)
                                  .right_shoulder("large", 0.75, 0.5)
                                  .build();

  InferenceFixture() {
    inputs.push_back(VariableBuilder("x", 0.0, 10.0)
                         .left_shoulder("lo", 0.0, 10.0)
                         .right_shoulder("hi", 10.0, 10.0)
                         .build());
    inputs.push_back(VariableBuilder("y", 0.0, 10.0)
                         .left_shoulder("lo", 0.0, 10.0)
                         .right_shoulder("hi", 10.0, 10.0)
                         .build());
  }

  /// Complete table over (x, y): rows (lo,lo), (lo,hi), (hi,lo), (hi,hi).
  RuleBase table(const std::vector<std::string>& consequents) const {
    return RuleBase(inputs, output, consequents);
  }

  /// Activations of one untraced evaluation.
  static std::vector<double> activations_at(const InferenceEngine& engine,
                                            std::vector<double> in) {
    InferenceScratch scratch;
    engine.infer_into(in, scratch);
    return scratch.activations;
  }
};

TEST_F(InferenceFixture, MinTNormFiringStrength) {
  const RuleBase rb = table({"small", "mid", "large", "large"});
  const InferenceEngine engine(inputs, output, rb);
  // x=2 -> lo 0.8, hi 0.2; y=4 -> lo 0.6, hi 0.4.  Each rule fires at the
  // min of its two grades: (lo,lo) 0.6, (lo,hi) 0.4, (hi,*) 0.2.
  const auto acts = activations_at(engine, {2.0, 4.0});
  EXPECT_DOUBLE_EQ(acts[0], 0.6);
  EXPECT_DOUBLE_EQ(acts[1], 0.4);
  EXPECT_DOUBLE_EQ(acts[2], 0.2);
}

TEST_F(InferenceFixture, MaxSNormAggregatesSameConsequent) {
  const RuleBase rb = table({"small", "small", "mid", "large"});
  const InferenceEngine engine(inputs, output, rb);
  // (lo,lo) = min(0.8, 0.4) = 0.4 and (lo,hi) = min(0.8, 0.6) = 0.6 share
  // "small": max 0.6.
  EXPECT_DOUBLE_EQ(activations_at(engine, {2.0, 6.0})[0], 0.6);
}

TEST_F(InferenceFixture, NoRuleFiresGivesEmptySet) {
  // A NaN input grades 0 on every term, so no rule of the table fires.
  const RuleBase rb = table({"small", "mid", "large", "large"});
  const InferenceEngine engine(inputs, output, rb);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(activations_at(engine, {nan, 5.0}), std::vector<double>(3, 0.0));
  EXPECT_EQ(activations_at(engine, {5.0, nan}), std::vector<double>(3, 0.0));
}

TEST_F(InferenceFixture, TracedReportsFiredRulesDescending) {
  const RuleBase rb = table({"small", "mid", "large", "large"});
  const InferenceEngine engine(inputs, output, rb);
  InferenceScratch scratch;
  engine.infer_traced_into(std::vector<double>{2.0, 4.0}, scratch);
  const std::vector<FiredRule>& fired = scratch.fired;
  // x=2: lo=0.8, hi=0.2; y=4: lo=0.6, hi=0.4.
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0].rule_index, 0u);
  EXPECT_DOUBLE_EQ(fired[0].strength, 0.6);
  EXPECT_EQ(fired[1].rule_index, 1u);
  EXPECT_DOUBLE_EQ(fired[1].strength, 0.4);
  // Rules 2 and 3 tie at 0.2 (their order is pinned against the reference
  // fold in test_rule_fold_oracle.cc).
  EXPECT_EQ(fired[2].rule_index + fired[3].rule_index, 5u);
  EXPECT_DOUBLE_EQ(fired[2].strength, 0.2);
  EXPECT_DOUBLE_EQ(fired[3].strength, 0.2);
  EXPECT_EQ(scratch.activations, activations_at(engine, {2.0, 4.0}));
}

TEST_F(InferenceFixture, TracedIntoRefillsFiredRules) {
  const RuleBase rb = table({"small", "mid", "large", "mid"});
  const InferenceEngine engine(inputs, output, rb);
  InferenceScratch fresh, reused;
  const std::vector<double> in = {3.0, 8.0};
  engine.infer_traced_into(in, fresh);
  // A warm scratch holding another evaluation's fired rules is cleared.
  engine.infer_traced_into(std::vector<double>{10.0, 10.0}, reused);
  engine.infer_traced_into(in, reused);
  ASSERT_EQ(reused.fired.size(), fresh.fired.size());
  for (std::size_t i = 0; i < fresh.fired.size(); ++i) {
    EXPECT_EQ(reused.fired[i].rule_index, fresh.fired[i].rule_index);
    EXPECT_DOUBLE_EQ(reused.fired[i].strength, fresh.fired[i].strength);
  }
}

TEST_F(InferenceFixture, ScratchIsReusableAcrossEngines) {
  // A scratch sized by a wide engine must still work for a narrow one and
  // vice versa — buffers are resized logically per call.
  const RuleBase rb1 = table({"small", "small", "mid", "large"});
  const InferenceEngine wide(inputs, output, rb1);

  std::vector<LinguisticVariable> one_input = {inputs[0]};
  const RuleBase rb2(one_input, output, {"large", "small"});
  const InferenceEngine narrow(one_input, output, rb2);

  InferenceScratch scratch;
  wide.infer_into(std::vector<double>{2.0, 3.0}, scratch);
  const auto wide_acts = scratch.activations;
  narrow.infer_into(std::vector<double>{2.0}, scratch);
  wide.infer_into(std::vector<double>{2.0, 3.0}, scratch);
  EXPECT_EQ(scratch.activations, wide_acts);
}

TEST_F(InferenceFixture, WrongInputArityThrows) {
  const RuleBase rb = table({"small", "mid", "large", "large"});
  const InferenceEngine engine(inputs, output, rb);
  EXPECT_THROW(activations_at(engine, {1.0}), facsp::ContractViolation);
  EXPECT_THROW(activations_at(engine, {1.0, 2.0, 3.0}),
               facsp::ContractViolation);
}

}  // namespace
}  // namespace facsp::fuzzy
