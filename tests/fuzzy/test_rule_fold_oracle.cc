// Every inference path against a reference fold over the complete rule table.
//
// The reference below is the textbook Mamdani fold: every rule of the table,
// in table order, fires at the min of its antecedent grades (each read
// through LinguisticVariable::grade()), and rules sharing a consequent
// aggregate by max.  The engine's paths skip work the reference does not:
// the scalar path enumerates only rules whose grades are all non-zero, and
// the lane kernel folds several decisions per vector operation.  Both must
// reproduce the reference bit for bit, and the traced path must report the
// reference's fired rules in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "cac/facs_flc.h"
#include "fuzzy/builder.h"
#include "fuzzy/controller.h"

namespace facsp::fuzzy {
namespace {

struct ReferenceFold {
  std::vector<double> activations;  ///< one per output term
  std::vector<FiredRule> fired;     ///< strength > 0, descending
};

ReferenceFold full_table_fold(const FuzzyController& c,
                              std::span<const double> x) {
  const RuleBase& rules = c.rules();
  ReferenceFold f;
  f.activations.assign(c.output().term_count(), 0.0);
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const FuzzyRule rule = rules.rule(r);
    double strength = 1.0;
    for (std::size_t i = 0; i < c.input_count(); ++i)
      strength =
          std::min(strength, c.input(i).grade(rule.antecedents[i], x[i]));
    double& acc = f.activations[rule.consequent];
    acc = std::max(acc, strength);
    if (strength > 0.0) f.fired.push_back({r, strength});
  }
  std::sort(f.fired.begin(), f.fired.end(),
            [](const FiredRule& a, const FiredRule& b) {
              return a.strength > b.strength;
            });
  return f;
}

/// A non-paper complete table over degenerate terms: a singleton spike and
/// a zero-width step on x, a plain partition on y.
std::unique_ptr<FuzzyController> make_degenerate_table() {
  return ControllerBuilder("degenerate-table")
      .input(VariableBuilder("x", 0.0, 1.0)
                 .term("spike", MembershipFunction::singleton(0.5))
                 .term("step", MembershipFunction::from_breakpoints(0.5, 0.5,
                                                                    1.0, 1.0))
                 .triangular("tri", 0.5, 0.5, 0.5)
                 .build())
      .input(VariableBuilder("y", -1.0, 1.0)
                 .left_shoulder("neg", -0.5, 0.5)
                 .triangular("zero", 0.0, 0.5, 0.5)
                 .right_shoulder("pos", 0.5, 0.5)
                 .build())
      .output(VariableBuilder("z", 0.0, 1.0).uniform_partition("Z", 5).build())
      .rule_table({"Z5", "Z4", "Z3", "Z1", "Z2", "Z5", "Z3", "Z3", "Z1"})
      .build();
}

std::vector<std::shared_ptr<const FuzzyController>> controllers() {
  return {cac::shared_flc1(), cac::shared_flc2(),
          cac::make_flc1_distance(1000.0), make_degenerate_table()};
}

/// Random crisp rows: mostly inside the universe, plus values below and
/// above it, NaN, the universe's exact edges and the exact breakpoints of
/// a random term (where grades hit 0 or 1 and rules start or stop firing).
std::vector<double> fuzz_rows(std::mt19937_64& rng, const FuzzyController& c,
                              std::size_t rows) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> data(rows * c.input_count());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < c.input_count(); ++i) {
      const LinguisticVariable& v = c.input(i);
      const double span = v.universe_hi() - v.universe_lo();
      double x = v.universe_lo() + span * uni(rng);
      switch (rng() % 10) {
        case 0: x = v.universe_lo() - span * uni(rng); break;
        case 1: x = v.universe_hi() + span * uni(rng); break;
        case 2: x = std::numeric_limits<double>::quiet_NaN(); break;
        case 3: x = v.universe_lo(); break;
        case 4: x = v.universe_hi(); break;
        case 5:
        case 6: {
          const MembershipFunction& mf = v.term(rng() % v.term_count()).mf;
          const double points[] = {mf.a(), mf.b(), mf.c(), mf.d()};
          const double p = points[rng() % 4];
          if (std::isfinite(p)) x = p;
          break;
        }
        default: break;
      }
      data[r * c.input_count() + i] = x;
    }
  }
  return data;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RuleFoldOracle, ScalarAndTracedPathsMatchTheFullTableFold) {
  std::mt19937_64 rng(2024);
  for (const auto& c : controllers()) {
    const InferenceEngine engine(c->inputs(), c->output(), c->rules());
    const std::size_t ni = c->input_count();
    const auto data = fuzz_rows(rng, *c, 3000);
    InferenceScratch plain, traced;
    for (std::size_t r = 0; r < 3000; ++r) {
      const std::span<const double> x(data.data() + r * ni, ni);
      const ReferenceFold want = full_table_fold(*c, x);
      engine.infer_into(x, plain);
      engine.infer_traced_into(x, traced);
      for (std::size_t k = 0; k < want.activations.size(); ++k) {
        ASSERT_EQ(bits(plain.activations[k]), bits(want.activations[k]))
            << c->name() << " row=" << r << " term=" << k;
        ASSERT_EQ(bits(traced.activations[k]), bits(want.activations[k]))
            << c->name() << " row=" << r << " term=" << k;
      }
      ASSERT_EQ(traced.fired.size(), want.fired.size())
          << c->name() << " row=" << r;
      for (std::size_t f = 0; f < want.fired.size(); ++f) {
        ASSERT_EQ(traced.fired[f].rule_index, want.fired[f].rule_index)
            << c->name() << " row=" << r << " fired=" << f;
        ASSERT_EQ(bits(traced.fired[f].strength), bits(want.fired[f].strength))
            << c->name() << " row=" << r << " fired=" << f;
      }
    }
  }
}

using LaneKernel = void (InferenceEngine::*)(std::span<const double>,
                                             std::size_t,
                                             InferenceScratch&) const;

void expect_lanes_match_fold(LaneKernel kernel, std::uint64_t seed) {
  constexpr std::size_t W = InferenceEngine::kLanes;
  std::mt19937_64 rng(seed);
  for (const auto& c : controllers()) {
    const InferenceEngine engine(c->inputs(), c->output(), c->rules());
    const std::size_t ni = c->input_count();
    InferenceScratch lanes;
    for (int block = 0; block < 256; ++block) {
      const std::size_t rows = 1 + block % W;
      const auto data = fuzz_rows(rng, *c, rows);
      (engine.*kernel)(data, rows, lanes);
      for (std::size_t r = 0; r < rows; ++r) {
        const ReferenceFold want = full_table_fold(
            *c, std::span<const double>(data.data() + r * ni, ni));
        for (std::size_t k = 0; k < want.activations.size(); ++k)
          ASSERT_EQ(bits(lanes.lane_activations[k * W + r]),
                    bits(want.activations[k]))
              << c->name() << " block=" << block << " row=" << r
              << " term=" << k;
      }
    }
  }
}

TEST(RuleFoldOracle, Width2LaneKernelMatchesTheFullTableFold) {
  expect_lanes_match_fold(&InferenceEngine::infer_batch_w2, 77);
}

TEST(RuleFoldOracle, Width4LaneKernelMatchesTheFullTableFold) {
  if (!lane_simd_available()) GTEST_SKIP() << "CPU has no AVX2";
  expect_lanes_match_fold(&InferenceEngine::infer_batch_w4, 77);
}

}  // namespace
}  // namespace facsp::fuzzy
