#include "fuzzy/controller.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/math_util.h"
#include "fuzzy/builder.h"

namespace facsp::fuzzy {
namespace {

// A tiny "tip" controller: service quality + food quality -> tip fraction.
std::unique_ptr<FuzzyController> tip_controller() {
  return ControllerBuilder("tip")
      .input(VariableBuilder("service", 0.0, 10.0)
                 .left_shoulder("poor", 0.0, 5.0)
                 .triangular("good", 5.0, 5.0, 5.0)
                 .right_shoulder("excellent", 10.0, 5.0)
                 .build())
      .input(VariableBuilder("food", 0.0, 10.0)
                 .left_shoulder("bad", 0.0, 10.0)
                 .right_shoulder("tasty", 10.0, 10.0)
                 .build())
      // low's right edge is spelled out: left_shoulder("low", 0.05, 0.10)
      // would put it at 0.05 + 0.10 = 0.15000000000000002, one ulp past
      // high's left edge (0.25 - 0.10 = 0.15), and the output would no
      // longer be the adjacent-overlap partition the defuzzifier needs.
      .output(VariableBuilder("tip", 0.0, 0.30)
                  .term("low", MembershipFunction::from_breakpoints(
                                   -kInf, -kInf, 0.05, 0.15))
                  .triangular("medium", 0.15, 0.10, 0.10)
                  .right_shoulder("high", 0.25, 0.10)
                  .build())
      // service x food, food fastest: poor service tips low whatever the
      // food; excellent service tips high only with tasty food.
      .rule_table({"low", "low", "medium", "medium", "medium", "high"})
      .build();
}

TEST(Controller, EndToEndEvaluation) {
  const auto flc = tip_controller();
  const double poor = flc->evaluate({0.0, 0.0});
  const double great = flc->evaluate({10.0, 10.0});
  EXPECT_LT(poor, 0.12);
  EXPECT_GT(great, 0.20);
  EXPECT_LT(poor, great);
}

TEST(Controller, MidpointGivesMediumTip) {
  const auto flc = tip_controller();
  EXPECT_NEAR(flc->evaluate({5.0, 5.0}), 0.15, 0.02);
}

TEST(Controller, MonotoneInService) {
  const auto flc = tip_controller();
  double prev = -1.0;
  for (double s = 0.0; s <= 10.0; s += 0.5) {
    const double tip = flc->evaluate({s, 10.0});
    EXPECT_GE(tip, prev - 1e-9) << "service=" << s;
    prev = tip;
  }
}

TEST(Controller, ExplainListsFiredRules) {
  const auto flc = tip_controller();
  const auto ex = flc->explain(std::vector<double>{9.0, 9.0});
  ASSERT_FALSE(ex.fired.empty());
  // Strongest rule first.
  for (std::size_t i = 1; i < ex.fired.size(); ++i)
    EXPECT_GE(ex.fired[i - 1].strength, ex.fired[i].strength);
  EXPECT_EQ(ex.rule_text.size(), ex.fired.size());
  EXPECT_NE(ex.rule_text[0].find("THEN tip is"), std::string::npos);
  EXPECT_DOUBLE_EQ(ex.crisp, flc->evaluate({9.0, 9.0}));
}

TEST(Controller, AccessorsExposeStructure) {
  const auto flc = tip_controller();
  EXPECT_EQ(flc->name(), "tip");
  EXPECT_EQ(flc->input_count(), 2u);
  EXPECT_EQ(flc->input(0).name(), "service");
  EXPECT_EQ(flc->output().name(), "tip");
  EXPECT_EQ(flc->rules().size(), 6u);
  EXPECT_THROW(flc->input(2), ContractViolation);
}

TEST(Controller, BuilderRejectsMissingOutput) {
  ControllerBuilder b("broken");
  b.input(VariableBuilder("x", 0.0, 1.0)
              .left_shoulder("lo", 0.0, 1.0)
              .right_shoulder("hi", 1.0, 1.0)
              .build());
  EXPECT_THROW(b.build(), ConfigError);
}

TEST(Controller, BuilderRejectsNoRules) {
  ControllerBuilder b("broken");
  b.input(VariableBuilder("x", 0.0, 1.0)
              .left_shoulder("lo", 0.0, 1.0)
              .right_shoulder("hi", 1.0, 1.0)
              .build());
  b.output(VariableBuilder("z", 0.0, 1.0)
               .left_shoulder("s", 0.0, 1.0)
               .right_shoulder("l", 1.0, 1.0)
               .build());
  EXPECT_THROW(b.build(), ConfigError);
}

TEST(Controller, BuilderRejectsSecondOutput) {
  ControllerBuilder b("broken");
  auto out = VariableBuilder("z", 0.0, 1.0)
                 .left_shoulder("s", 0.0, 1.0)
                 .right_shoulder("l", 1.0, 1.0)
                 .build();
  b.output(out);
  EXPECT_THROW(b.output(out), ConfigError);
}

TEST(Controller, EvaluateIsDeterministic) {
  const auto flc = tip_controller();
  const double a = flc->evaluate({3.7, 6.1});
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(flc->evaluate({3.7, 6.1}), a);
}

TEST(Controller, EvaluateWithExplicitScratchMatchesEvaluate) {
  const auto flc = tip_controller();
  InferenceScratch scratch;
  for (double food = 0.0; food <= 10.0; food += 1.7) {
    for (double service = 0.0; service <= 10.0; service += 2.3) {
      const double in[2] = {food, service};
      EXPECT_DOUBLE_EQ(flc->evaluate_with(scratch, in), flc->evaluate(in));
    }
  }
}

TEST(Controller, EvaluateBatchMatchesScalarEvaluate) {
  const auto flc = tip_controller();
  std::vector<double> inputs;
  std::vector<double> expect;
  for (double food = 0.0; food <= 10.0; food += 1.1) {
    for (double service = 0.0; service <= 10.0; service += 1.3) {
      inputs.push_back(food);
      inputs.push_back(service);
      expect.push_back(flc->evaluate({food, service}));
    }
  }
  std::vector<double> out(expect.size());
  flc->evaluate_batch(inputs, out);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i], expect[i]) << "row " << i;
}

TEST(Controller, EvaluateBatchValidatesShape) {
  const auto flc = tip_controller();
  std::vector<double> inputs(5);  // not a multiple of input_count() rows
  std::vector<double> out(2);
  EXPECT_THROW(flc->evaluate_batch(inputs, out), facsp::ContractViolation);
}

}  // namespace
}  // namespace facsp::fuzzy
