// Bit-identity of the structure-of-arrays batched inference path.
//
// The contract under test (inference.h, infer_batch_into): per row, batched
// evaluation returns the *bit-identical* double the scalar path produces.
// The lane kernel has two widths, infer_batch_w2() and infer_batch_w4()
// (AVX2); the Width* tests call each directly against scalar infer_into(),
// so both are proven on every x86-64 build with AVX2, whichever one
// infer_batch_into() dispatches to.  Every comparison here is exact (EXPECT_EQ
// on doubles or on their bits), not EXPECT_NEAR: the determinism guarantees
// of the sweep/multicell layers (thread-count invariance, golden replay) ride
// on exact equality.
#include <gtest/gtest.h>

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

/// Random crisp rows for a controller: mostly in-universe, with deliberate
/// out-of-universe and NaN entries (both must behave exactly like the
/// scalar path: clamped, respectively graded 0 everywhere).
std::vector<double> fuzz_rows(std::mt19937_64& rng, const FuzzyController& c,
                              std::size_t rows) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> data(rows * c.input_count());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < c.input_count(); ++i) {
      const auto& v = c.input(i);
      const double span = v.universe_hi() - v.universe_lo();
      double x = v.universe_lo() + span * uni(rng);
      const auto pick = rng() % 12;
      if (pick == 0) x = v.universe_lo() - span * uni(rng);  // below
      if (pick == 1) x = v.universe_hi() + span * uni(rng);  // above
      if (pick == 2) x = std::numeric_limits<double>::quiet_NaN();
      if (pick == 3) x = v.universe_lo();  // exact edges
      if (pick == 4) x = v.universe_hi();
      data[r * c.input_count() + i] = x;
    }
  }
  return data;
}

/// evaluate_batch over sizes 1..max_rows must equal evaluate_with row by
/// row, bitwise (NaN outputs would also have to match, but no input maps to
/// a NaN output — empty sets defuzzify to the universe midpoint).
void expect_batch_bitwise_identical(const FuzzyController& c,
                                    std::uint64_t seed,
                                    std::size_t max_rows = 33) {
  std::mt19937_64 rng(seed);
  InferenceScratch batch_scratch, scalar_scratch;
  for (std::size_t rows = 1; rows <= max_rows; ++rows) {
    const auto data = fuzz_rows(rng, c, rows);
    std::vector<double> out(rows, -999.0);
    c.evaluate_batch_with(batch_scratch, data, out);
    for (std::size_t r = 0; r < rows; ++r) {
      const double scalar = c.evaluate_with(
          scalar_scratch,
          std::span<const double>(data.data() + r * c.input_count(),
                                  c.input_count()));
      EXPECT_EQ(out[r], scalar) << c.name() << " rows=" << rows
                                << " row=" << r;
    }
  }
}

TEST(BatchInference, Flc1MatchesScalarBitwise) {
  const auto flc1 = cac::shared_flc1();
  expect_batch_bitwise_identical(*flc1, 101);
}

TEST(BatchInference, Flc2MatchesScalarBitwise) {
  const auto flc2 = cac::shared_flc2();
  expect_batch_bitwise_identical(*flc2, 202);
}

/// Singleton and zero-width-edge terms, which the lane kernel grades per
/// lane through MembershipFunction::grade() itself.
std::unique_ptr<FuzzyController> make_degenerate() {
  return ControllerBuilder("degenerate")
      .input(VariableBuilder("x", 0.0, 1.0)
                 .term("spike", MembershipFunction::singleton(0.5))
                 .term("step", MembershipFunction::from_breakpoints(0.5, 0.5,
                                                                    1.0, 1.0))
                 .triangular("tri", 0.5, 0.5, 0.5)
                 .build())
      .output(VariableBuilder("z", 0.0, 1.0).uniform_partition("Z", 3).build())
      .rule_table({"Z3", "Z2", "Z1"})
      .build();
}

TEST(BatchInference, DegenerateTermsTakeTheScalarFallbackBitwise) {
  // The degenerate terms are flagged fast=false and graded per lane through
  // grade() — identical bits by construction, but the routing must actually
  // happen (a branchless kernel would divide by zero and yield NaN grades).
  const auto c = make_degenerate();
  // Hit the singleton exactly (grade 1 only at x == 0.5) and around it.
  InferenceScratch batch_scratch, scalar_scratch;
  const std::vector<double> data = {0.5, 0.25, 0.75, 0.4999999, 1.0,
                                    0.0, std::numeric_limits<double>::quiet_NaN(),
                                    0.5000001, 0.5};
  std::vector<double> out(data.size());
  c->evaluate_batch_with(batch_scratch, data, out);
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(out[r], c->evaluate_with(
                          scalar_scratch,
                          std::span<const double>(data.data() + r, 1)))
        << "row=" << r;
  }
}

using LaneKernel = void (InferenceEngine::*)(std::span<const double>,
                                             std::size_t,
                                             InferenceScratch&) const;

/// One lane-kernel width against scalar infer_into(): every output term's
/// activation, for every row of blocks of 1..kLanes rows, must have the same
/// bits (so a -0.0 where the scalar path has +0.0 fails too).
void expect_width_bitwise_identical(LaneKernel kernel, std::uint64_t seed) {
  constexpr std::size_t W = InferenceEngine::kLanes;
  const std::shared_ptr<const FuzzyController> controllers[] = {
      cac::shared_flc1(), cac::shared_flc2(), make_degenerate()};
  std::mt19937_64 rng(seed);
  for (const auto& c : controllers) {
    const InferenceEngine engine(c->inputs(), c->output(), c->rules());
    const std::size_t ni = c->input_count();
    InferenceScratch lanes, scalar;
    for (int block = 0; block < 64; ++block) {
      const std::size_t rows = 1 + block % W;
      const auto data = fuzz_rows(rng, *c, rows);
      (engine.*kernel)(data, rows, lanes);
      for (std::size_t r = 0; r < rows; ++r) {
        engine.infer_into(std::span<const double>(data.data() + r * ni, ni),
                          scalar);
        for (std::size_t k = 0; k < c->output().term_count(); ++k) {
          const double lane = lanes.lane_activations[k * W + r];
          EXPECT_EQ(std::bit_cast<std::uint64_t>(lane),
                    std::bit_cast<std::uint64_t>(scalar.activations[k]))
              << c->name() << " block=" << block << " row=" << r
              << " term=" << k;
        }
      }
    }
  }
}

TEST(BatchInference, Width2KernelMatchesScalarInferBitwise) {
  expect_width_bitwise_identical(&InferenceEngine::infer_batch_w2, 505);
}

TEST(BatchInference, Width4KernelMatchesScalarInferBitwise) {
  if (!lane_simd_available()) GTEST_SKIP() << "CPU has no AVX2";
  expect_width_bitwise_identical(&InferenceEngine::infer_batch_w4, 505);
}

TEST(BatchInference, EmptyBatchIsANoOp) {
  const auto flc2 = cac::shared_flc2();
  InferenceScratch scratch;
  flc2->evaluate_batch_with(scratch, {}, {});  // must not assert or touch out
}

}  // namespace
}  // namespace facsp::fuzzy
