#include "fuzzy/builder.h"

#include <gtest/gtest.h>

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

TEST(ControllerBuilder, MixedRuleSourcesCompose) {
  // rule_table() plus extra textual rules in one controller.
  auto flc = ControllerBuilder("mixed")
                 .input(VariableBuilder("x", 0.0, 1.0)
                            .left_shoulder("lo", 0.0, 1.0)
                            .right_shoulder("hi", 1.0, 1.0)
                            .build())
                 .output(VariableBuilder("y", 0.0, 1.0)
                             .left_shoulder("s", 0.0, 1.0)
                             .right_shoulder("l", 1.0, 1.0)
                             .build())
                 .rule("IF x is lo THEN y is s [0.9]")
                 .rule_table({"s", "l"})
                 .build();
  EXPECT_EQ(flc->rules().size(), 3u);
  EXPECT_LT(flc->evaluate({0.0}), 0.5);
  EXPECT_GT(flc->evaluate({1.0}), 0.5);
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

}  // namespace
}  // namespace facsp::fuzzy
