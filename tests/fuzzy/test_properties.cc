// Property-style parameterized suites over the fuzzy engine's invariants,
// exercised on the paper's own controllers (FLC1, FLC1-D, FLC2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "cac/facs_flc.h"
#include "fuzzy/controller.h"
#include "sim/rng.h"

namespace facsp::fuzzy {
namespace {

enum class Which { kFlc1, kFlc1D, kFlc2 };

struct ControllerCase {
  Which which;
  const char* label;
};

std::shared_ptr<const FuzzyController> make(Which w) {
  switch (w) {
    case Which::kFlc1: return cac::shared_flc1();
    case Which::kFlc1D: return cac::make_flc1_distance(1000.0);
    case Which::kFlc2: return cac::shared_flc2();
  }
  return cac::shared_flc1();
}

class PaperControllerProperty
    : public ::testing::TestWithParam<ControllerCase> {};

TEST_P(PaperControllerProperty, OutputStaysInsideUniverse) {
  const auto flc = make(GetParam().which);
  sim::RandomStream rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> in;
    for (std::size_t i = 0; i < flc->input_count(); ++i) {
      const auto& v = flc->input(i);
      // Sample slightly beyond the universe: clamping must keep the result
      // valid anyway.
      in.push_back(rng.uniform(v.universe_lo() - 1.0, v.universe_hi() + 1.0));
    }
    const double y = flc->evaluate(in);
    EXPECT_GE(y, flc->output().universe_lo()) << GetParam().label;
    EXPECT_LE(y, flc->output().universe_hi()) << GetParam().label;
    EXPECT_TRUE(std::isfinite(y));
  }
}

TEST_P(PaperControllerProperty, RuleCountIsTheProductOfTermCounts) {
  const auto flc = make(GetParam().which);
  std::size_t combinations = 1;
  for (std::size_t i = 0; i < flc->input_count(); ++i)
    combinations *= flc->input(i).term_count();
  EXPECT_EQ(flc->rules().size(), combinations) << GetParam().label;
}

TEST_P(PaperControllerProperty, EveryInputVariableCoversItsUniverse) {
  const auto flc = make(GetParam().which);
  for (std::size_t i = 0; i < flc->input_count(); ++i)
    EXPECT_TRUE(flc->input(i).covers_universe(1e-6))
        << GetParam().label << " input " << flc->input(i).name();
  EXPECT_TRUE(flc->output().covers_universe(1e-6));
}

TEST_P(PaperControllerProperty, SomeRuleAlwaysFires) {
  const auto flc = make(GetParam().which);
  sim::RandomStream rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> in;
    for (std::size_t i = 0; i < flc->input_count(); ++i) {
      const auto& v = flc->input(i);
      in.push_back(rng.uniform(v.universe_lo(), v.universe_hi()));
    }
    const auto ex = flc->explain(in);
    EXPECT_FALSE(ex.fired.empty()) << GetParam().label;
    EXPECT_GT(*std::max_element(ex.activations.begin(), ex.activations.end()),
              0.0)
        << GetParam().label;
    // explain() defuzzifies through the same primed path as evaluate().
    EXPECT_EQ(ex.crisp, flc->evaluate(in)) << GetParam().label;
  }
}

TEST_P(PaperControllerProperty, ContinuityUnderSmallPerturbation) {
  // Centroid defuzzification of piecewise-linear sets is Lipschitz; tiny
  // input changes must not jump the output.
  const auto flc = make(GetParam().which);
  sim::RandomStream rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> in;
    for (std::size_t i = 0; i < flc->input_count(); ++i) {
      const auto& v = flc->input(i);
      in.push_back(rng.uniform(v.universe_lo(), v.universe_hi()));
    }
    const double y0 = flc->evaluate(in);
    auto nudged = in;
    for (std::size_t i = 0; i < nudged.size(); ++i) {
      const auto& v = flc->input(i);
      nudged[i] += 1e-5 * (v.universe_hi() - v.universe_lo());
    }
    const double y1 = flc->evaluate(nudged);
    EXPECT_NEAR(y0, y1, 2e-2) << GetParam().label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperControllers, PaperControllerProperty,
    ::testing::Values(ControllerCase{Which::kFlc1, "FLC1"},
                      ControllerCase{Which::kFlc1D, "FLC1-D"},
                      ControllerCase{Which::kFlc2, "FLC2"}),
    [](const ::testing::TestParamInfo<ControllerCase>& info) {
      return std::string(info.param.label) == "FLC1-D"
                 ? "FLC1D"
                 : std::string(info.param.label);
    });

// --- FLC2-specific monotonicity properties ---------------------------------

class Flc2Monotonicity : public ::testing::TestWithParam<double> {};

TEST_P(Flc2Monotonicity, ScoreNonIncreasingInCounterState) {
  // At any fixed (Cv, Rq), more occupied bandwidth must never make the
  // admission score larger (the paper's FLC2 is monotone: fuller -> reject).
  const auto flc2 = cac::shared_flc2();
  const double cv = GetParam();
  for (double rq : {1.0, 5.0, 10.0}) {
    double prev = 2.0;
    for (double cs = 0.0; cs <= 40.0; cs += 1.0) {
      const double score = flc2->evaluate({cv, rq, cs});
      EXPECT_LE(score, prev + 5e-2)
          << "cv=" << cv << " rq=" << rq << " cs=" << cs;
      prev = score;
    }
  }
}

TEST_P(Flc2Monotonicity, BetterCorrectionNeverHurtsBelowFull) {
  // At fixed (Rq, Cs), a higher correction value (better mobility outlook)
  // must not lower the admission score — as long as the cell is not in the
  // "Full" region.  (Table 2 deliberately breaks this at Fu: a Good-Cv
  // video gets a hard Reject while a Normal-Cv one only gets NRNA, because
  // a well-predicted video will actually stay and occupy the full cell.)
  const auto flc2 = cac::shared_flc2();
  const double cs = GetParam() * 20.0;  // Sa..Md region only
  for (double rq : {1.0, 5.0, 10.0}) {
    double prev = -2.0;
    for (double cv = 0.0; cv <= 1.0; cv += 0.05) {
      const double score = flc2->evaluate({cv, rq, cs});
      EXPECT_GE(score, prev - 5e-2)
          << "cs=" << cs << " rq=" << rq << " cv=" << cv;
      prev = score;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CvGrid, Flc2Monotonicity,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace facsp::fuzzy
