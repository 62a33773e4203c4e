#include "fuzzy/rulebase.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "fuzzy/builder.h"

namespace facsp::fuzzy {
namespace {

std::vector<LinguisticVariable> two_inputs() {
  std::vector<LinguisticVariable> v;
  v.push_back(VariableBuilder("x", 0.0, 1.0)
                  .left_shoulder("lo", 0.0, 1.0)
                  .right_shoulder("hi", 1.0, 1.0)
                  .build());
  v.push_back(VariableBuilder("y", 0.0, 1.0)
                  .left_shoulder("lo", 0.0, 1.0)
                  .triangular("mid", 0.5, 0.5, 0.5)
                  .right_shoulder("hi", 1.0, 1.0)
                  .build());
  return v;
}

LinguisticVariable out_var() {
  return VariableBuilder("z", 0.0, 1.0)
      .left_shoulder("small", 0.0, 1.0)
      .right_shoulder("large", 1.0, 1.0)
      .build();
}

TEST(RuleBase, SizeIsTheProductOfTermCounts) {
  const auto inputs = two_inputs();
  const RuleBase rb(inputs, out_var(),
                    {"small", "small", "large", "small", "large", "large"});
  EXPECT_EQ(rb.size(), 6u);  // 2 * 3
  EXPECT_EQ(rb.input_count(), 2u);
  EXPECT_EQ(rb.output_term_count(), 2u);
}

TEST(RuleBase, TableBuildsLastInputFastest) {
  const auto inputs = two_inputs();
  const auto output = out_var();
  // 6 combos: (x=lo,y=lo), (lo,mid), (lo,hi), (hi,lo), (hi,mid), (hi,hi).
  const RuleBase rb(inputs, output,
                    {"small", "small", "large", "small", "large", "large"});
  ASSERT_EQ(rb.size(), 6u);
  // Row 2 is (x=lo, y=hi) -> large.
  EXPECT_EQ(rb.rule(2).antecedents, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(rb.rule(2).consequent, output.term_index("large"));
  EXPECT_EQ(rb.consequents()[2], output.term_index("large"));
  // Row 3 is (x=hi, y=lo) -> small.
  EXPECT_EQ(rb.rule(3).antecedents, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(rb.rule(3).consequent, output.term_index("small"));
  EXPECT_THROW(rb.rule(6), ContractViolation);
}

TEST(RuleBase, TableRejectsWrongSize) {
  const auto inputs = two_inputs();
  EXPECT_THROW(RuleBase(inputs, out_var(), {"small"}), ConfigError);
  EXPECT_THROW(RuleBase(inputs, out_var(), {}), ConfigError);
}

TEST(RuleBase, TableRejectsUnknownTerm) {
  const auto inputs = two_inputs();
  EXPECT_THROW(RuleBase(inputs, out_var(),
                        {"small", "small", "nope", "small", "large", "large"}),
               ConfigError);
}

TEST(RuleBase, TableRejectsNoInputs) {
  EXPECT_THROW(RuleBase({}, out_var(), {"small"}), ConfigError);
}

TEST(RuleToString, RendersReadableForm) {
  const auto inputs = two_inputs();
  const auto output = out_var();
  const FuzzyRule rule{{0, 2}, 1};
  EXPECT_EQ(to_string(rule, inputs, output),
            "IF x is lo AND y is hi THEN z is large");
}

}  // namespace
}  // namespace facsp::fuzzy
