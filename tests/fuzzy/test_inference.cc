#include "fuzzy/inference.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include "fuzzy/builder.h"
#include "fuzzy/rule_parser.h"

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

  std::vector<FuzzyRule> rules(const std::vector<std::string>& texts) {
    std::vector<FuzzyRule> out;
    for (const auto& t : texts) out.push_back(parse_rule(t, inputs, output));
    return out;
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
  const auto rs = rules({"IF x is lo AND y is lo THEN z is small"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  // x=2 -> mu_lo = 0.8; y=5 -> mu_lo = 0.5; min = 0.5.
  const auto acts = activations_at(engine, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(acts[0], 0.5);
  EXPECT_DOUBLE_EQ(acts[1], 0.0);
  EXPECT_DOUBLE_EQ(acts[2], 0.0);
}

TEST_F(InferenceFixture, MaxSNormAggregatesSameConsequent) {
  const auto rs = rules({"IF x is lo THEN z is small",
                         "IF y is lo THEN z is small"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  // mu_lo(x=2)=0.8, mu_lo(y=6)=0.4 -> max 0.8.
  EXPECT_DOUBLE_EQ(activations_at(engine, {2.0, 6.0})[0], 0.8);
}

TEST_F(InferenceFixture, RuleWeightScalesStrength) {
  auto rs = rules({"IF x is lo THEN z is small [0.5]"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  EXPECT_DOUBLE_EQ(activations_at(engine, {0.0, 0.0})[0], 0.5);
}

TEST_F(InferenceFixture, WildcardIgnoresThatInput) {
  const auto rs = rules({"IF y is hi THEN z is large"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  for (double x : {0.0, 5.0, 10.0})
    EXPECT_DOUBLE_EQ(activations_at(engine, {x, 10.0})[2], 1.0) << "x=" << x;
}

TEST_F(InferenceFixture, NoRuleFiresGivesEmptySet) {
  const auto rs = rules({"IF x is hi AND y is hi THEN z is large"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  EXPECT_EQ(activations_at(engine, {0.0, 0.0}), std::vector<double>(3, 0.0));
}

TEST_F(InferenceFixture, TracedReportsFiredRulesDescending) {
  const auto rs = rules({"IF x is lo THEN z is small",
                         "IF y is lo THEN z is mid",
                         "IF x is hi THEN z is large"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  InferenceScratch scratch;
  engine.infer_traced_into(std::vector<double>{2.0, 4.0}, scratch);
  const std::vector<FiredRule>& fired = scratch.fired;
  // x=2: lo=0.8, hi=0.2; y=4: lo=0.6.
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].rule_index, 0u);
  EXPECT_DOUBLE_EQ(fired[0].strength, 0.8);
  EXPECT_EQ(fired[1].rule_index, 1u);
  EXPECT_DOUBLE_EQ(fired[1].strength, 0.6);
  EXPECT_EQ(fired[2].rule_index, 2u);
  EXPECT_DOUBLE_EQ(fired[2].strength, 0.2);
}

TEST_F(InferenceFixture, InferIntoMatchesTracedScan) {
  // Wildcard-free and duplicate-free, so infer_into() takes the dense
  // sparse-fire path while infer_traced_into() keeps the linear scan.
  const auto rs = rules({"IF x is lo AND y is lo THEN z is small",
                         "IF x is hi AND y is hi THEN z is large",
                         "IF x is lo AND y is hi THEN z is mid"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  InferenceScratch dense, traced;
  for (double x = 0.0; x <= 10.0; x += 2.5) {
    for (double y = 0.0; y <= 10.0; y += 2.5) {
      const std::vector<double> in = {x, y};
      engine.infer_into(in, dense);
      engine.infer_traced_into(in, traced);
      EXPECT_EQ(dense.activations, traced.activations)
          << "x=" << x << " y=" << y;
    }
  }
}

TEST_F(InferenceFixture, TracedIntoRefillsFiredRules) {
  const auto rs = rules({"IF x is lo THEN z is small",
                         "IF x is hi THEN z is large",
                         "IF y is hi THEN z is mid"});
  const RuleBase rb(rs, inputs, output);
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
  const auto rs1 = rules({"IF x is lo THEN z is small"});
  const RuleBase rb1(rs1, inputs, output);
  const InferenceEngine wide(inputs, output, rb1);

  std::vector<LinguisticVariable> one_input = {inputs[0]};
  const auto r2 = parse_rule("IF x is lo THEN z is large", one_input, output);
  const RuleBase rb2({r2}, one_input, output);
  const InferenceEngine narrow(one_input, output, rb2);

  InferenceScratch scratch;
  wide.infer_into(std::vector<double>{2.0, 3.0}, scratch);
  const auto wide_acts = scratch.activations;
  narrow.infer_into(std::vector<double>{2.0}, scratch);
  wide.infer_into(std::vector<double>{2.0, 3.0}, scratch);
  EXPECT_EQ(scratch.activations, wide_acts);
}

TEST_F(InferenceFixture, WrongInputArityThrows) {
  const auto rs = rules({"IF x is lo THEN z is small"});
  const RuleBase rb(rs, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  EXPECT_THROW(activations_at(engine, {1.0}), facsp::ContractViolation);
  EXPECT_THROW(activations_at(engine, {1.0, 2.0, 3.0}),
               facsp::ContractViolation);
}

}  // namespace
}  // namespace facsp::fuzzy
