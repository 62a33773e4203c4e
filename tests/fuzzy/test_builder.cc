#include "fuzzy/builder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"

namespace facsp::fuzzy {
namespace {

TEST(VariableBuilder, AllTermShapes) {
  const auto v = VariableBuilder("v", 0.0, 100.0)
                     .left_shoulder("lo", 10.0, 20.0)
                     .triangular("mid", 50.0, 25.0, 25.0)
                     .trapezoidal("band", 60.0, 80.0, 10.0, 10.0)
                     .right_shoulder("hi", 90.0, 20.0)
                     .term("spike", MembershipFunction::singleton(42.0))
                     .build();
  EXPECT_EQ(v.term_count(), 5u);
  EXPECT_DOUBLE_EQ(v.grade(v.term_index("band"), 70.0), 1.0);
  EXPECT_DOUBLE_EQ(v.grade(v.term_index("spike"), 42.0), 1.0);
  EXPECT_DOUBLE_EQ(v.grade(v.term_index("spike"), 42.5), 0.0);
}

TEST(VariableBuilder, UniformPartitionEdges) {
  EXPECT_THROW(
      VariableBuilder("v", 0.0, 1.0).uniform_partition("t", 1).build(),
      ConfigError);
  const auto two =
      VariableBuilder("v", 0.0, 1.0).uniform_partition("t", 2).build();
  EXPECT_EQ(two.term_count(), 2u);
  // Two shoulders crossing at the middle.
  EXPECT_DOUBLE_EQ(two.grade(0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(two.grade(1, 0.5), 0.5);
}

TEST(VariableBuilder, UniformPartitionSumsToOneInside) {
  const auto v =
      VariableBuilder("v", -2.0, 3.0).uniform_partition("p", 6).build();
  for (double x = -2.0; x <= 3.0; x += 0.01) {
    double sum = 0.0;
    for (std::size_t t = 0; t < v.term_count(); ++t) sum += v.grade(t, x);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "x=" << x;
  }
}

TEST(VariableBuilder, UniformPartitionAdmitsTheAnalyticCentroid) {
  // Only adjacent supports overlap, not even by an ulp, for any universe
  // and term count: the defuzzifier accepts every such output.
  for (const auto& [lo, hi] : {std::pair{0.0, 1.0}, std::pair{-1.0, 1.0},
                               std::pair{0.0, 0.3}, std::pair{-2.0, 3.0}}) {
    for (int count = 2; count <= 20; ++count) {
      const auto v =
          VariableBuilder("v", lo, hi).uniform_partition("p", count).build();
      EXPECT_NO_THROW(Defuzzifier{v}) << lo << " " << hi << " " << count;
    }
  }
}

TEST(VariableBuilder, PropagatesValidationErrors) {
  // Duplicate names surface at build().
  VariableBuilder b("v", 0.0, 1.0);
  b.left_shoulder("a", 0.0, 1.0).right_shoulder("a", 1.0, 1.0);
  EXPECT_THROW(b.build(), ConfigError);
  // Bad geometry surfaces at the term call itself.
  EXPECT_THROW(VariableBuilder("v", 0.0, 1.0).triangular("t", 0.5, -1.0, 1.0),
               ConfigError);
}

TEST(ControllerBuilder, RuleTableValidatedAtBuild) {
  ControllerBuilder b("bad");
  b.input(VariableBuilder("x", 0.0, 1.0)
              .left_shoulder("lo", 0.0, 1.0)
              .right_shoulder("hi", 1.0, 1.0)
              .build());
  b.output(VariableBuilder("y", 0.0, 1.0)
               .left_shoulder("s", 0.0, 1.0)
               .right_shoulder("l", 1.0, 1.0)
               .build());
  b.rule_table({"s"});  // wrong size: 2 combinations expected
  EXPECT_THROW(b.build(), ConfigError);
}

/// A controller of `inputs` copies of a `terms`-term input, with the
/// complete rule table every consequent of which is "s".
std::unique_ptr<FuzzyController> build_grid(std::size_t inputs, int terms) {
  ControllerBuilder b("grid");
  std::size_t rules = 1;
  for (std::size_t i = 0; i < inputs; ++i) {
    b.input(VariableBuilder("x" + std::to_string(i), 0.0, 1.0)
                .uniform_partition("t", terms)
                .build());
    rules *= static_cast<std::size_t>(terms);
  }
  b.output(VariableBuilder("y", 0.0, 1.0)
               .left_shoulder("s", 0.0, 1.0)
               .right_shoulder("l", 1.0, 1.0)
               .build());
  b.rule_table(std::vector<std::string>(rules, "s"));
  return b.build();
}

TEST(ControllerBuilder, InferenceBoundsCheckedAtBuild) {
  // The scalar path enumerates fired rules in fixed-size stack arrays; a
  // controller beyond them is refused when it is built, not at evaluation.
  constexpr std::size_t kInputs = InferenceEngine::kMaxInputs;
  constexpr int kTerms = static_cast<int>(InferenceEngine::kMaxTerms);
  EXPECT_NO_THROW(build_grid(kInputs, 2)->evaluate(
      std::vector<double>(kInputs, 0.3)));
  EXPECT_NO_THROW(build_grid(1, kTerms)->evaluate({0.3}));
  EXPECT_THROW(build_grid(kInputs + 1, 2), ConfigError);
  EXPECT_THROW(build_grid(1, kTerms + 1), ConfigError);
}

}  // namespace
}  // namespace facsp::fuzzy
