// Structure-of-arrays batched inference: the lane kernel behind
// InferenceEngine::infer_batch_into().
//
// Layout: every per-decision quantity is lane-major — kLanes consecutive
// doubles per input / grade slot / output term, one per decision — so the
// innermost operations step across decisions, not terms.  The kernel is one
// template over a GCC vector type of N doubles, instantiated twice:
// N = 4 in a target("avx2") function (picked at run time when the CPU has
// AVX2) and N = 2 in a baseline function (SSE2 on x86-64, NEON on AArch64).
//
// Bit-identity contract (asserted by tests/fuzzy/test_batch_inference.cc for
// both widths): per lane, the kernel performs the exact IEEE operation
// sequence of the scalar path:
//  * fuzzify: the same clamp ternaries and the same edge-ratio divisions as
//    MembershipFunction::grade(), written as the same vector ternaries (each
//    compiles to a min/max whose operand order keeps the scalar result on
//    ties and NaN); a NaN input is masked to +0 by an ordered compare,
//    matching grade()'s isnan guard.  Degenerate shapes (singletons,
//    zero-width edges) take a scalar per-lane fallback through grade().
//  * rules: every rule of the table, in table order, min-folds its
//    antecedent grades in input order, exactly like the scalar path, then
//    max-aggregates into its consequent.  The scalar path skips rules with
//    a zero grade; evaluating them is value-identical because min(0, g) ==
//    0 and max(acc, 0) == acc for acc in [0, 1].
//  * only min/max/and/sub/div lane ops are used — never FMA — so both
//    widths round exactly like the scalar code.
#include <cstdint>
#include <cstring>
#include <span>

#include "common/expects.h"
#include "common/math_util.h"
#include "fuzzy/inference.h"

namespace facsp::fuzzy {

bool lane_simd_available() noexcept {
#if defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
#else
  return false;
#endif
}

template <std::size_t N>
[[gnu::always_inline]] inline void InferenceEngine::infer_lanes(
    std::span<const double> crisp_inputs, std::size_t rows,
    InferenceScratch& scratch) const {
  constexpr std::size_t W = kLanes;
  constexpr std::size_t H = W / N;  // vectors per lane block
  static_assert(W % N == 0);
  // Locals only: a vector parameter or return value would change the ABI of
  // the baseline build, so every lane operation is written out in place.
  // (typedef, not using: GCC drops vector_size from a dependent alias.)
  typedef double V __attribute__((vector_size(8 * N)));
  typedef std::int64_t M __attribute__((vector_size(8 * N)));

  FACSP_EXPECTS_MSG(rows >= 1 && rows <= W,
                    "infer_batch_into: rows must be in [1, " << W << "], got "
                                                             << rows);
  FACSP_EXPECTS_MSG(crisp_inputs.size() == rows * inputs_.size(),
                    "infer_batch_into: expected " << rows * inputs_.size()
                                                  << " values, got "
                                                  << crisp_inputs.size());
  const std::size_t ni = inputs_.size();
  scratch.lane_inputs.resize(ni * W);
  scratch.lane_grades.resize(total_grades_ * W);
  scratch.lane_activations.assign(output_.term_count() * W, 0.0);
  // Transpose the row-major block to lane-major; tail lanes replicate row 0
  // (computed but never read back, and always finite).
  double* const in = scratch.lane_inputs.data();
  double* const grades = scratch.lane_grades.data();
  double* const acts = scratch.lane_activations.data();
  for (std::size_t i = 0; i < ni; ++i)
    for (std::size_t l = 0; l < W; ++l)
      in[i * W + l] = crisp_inputs[(l < rows ? l : 0) * ni + i];

  // The unit bounds are hidden from constant folding: GCC compiles a vector
  // ternary against a constant into compare + blend, but against an unknown
  // value into the one min/max instruction the scalar ternary needs.
  V zeros = V{}, ones = zeros + 1.0;
  asm("" : "+m"(zeros), "+m"(ones));
  std::size_t s = 0;
  for (std::size_t i = 0; i < ni; ++i) {
    const double* const x = in + i * W;
    for (std::size_t t = 0; t < inputs_[i].term_count(); ++t, ++s) {
      const LaneTerm& g = lane_terms_[s];
      double* const out = grades + s * W;
      if (!g.fast) {
        for (std::size_t l = 0; l < W; ++l)
          out[l] = g.mf->grade(clamp(x[l], g.lo, g.hi));
        continue;
      }
      // Read once: the grade stores below may alias the term's doubles.
      const double lo = g.lo, hi = g.hi, a = g.a, ba = g.ba, d = g.d,
                   dc = g.dc;
      for (std::size_t h = 0; h < H; ++h) {
        V cx;
        std::memcpy(&cx, x + h * N, sizeof cx);
        cx = cx < lo ? lo : cx;
        cx = cx > hi ? hi : cx;
        const V rise = g.left_open ? ones : (cx - a) / ba;
        const V fall = g.right_open ? ones : (d - cx) / dc;
        V v = rise < fall ? rise : fall;
        v = v < ones ? v : ones;
        v = v > zeros ? v : zeros;
        // cx == cx ? v : 0.0 — the all-ones ordered mask keeps v, NaN lanes
        // become +0.0 like grade()'s isnan guard.
        v = (V)((M)v & (cx == cx));
        std::memcpy(out + h * N, &v, sizeof v);
      }
    }
  }

  // Locals, not member reads: the stores below may alias the rule base.
  const std::uint32_t* slots = rule_slots_.data();
  for (const std::size_t consequent : rules_.consequents()) {
    V st[H];
    for (std::size_t h = 0; h < H; ++h) st[h] = ones;
    for (std::size_t i = 0; i < ni; ++i) {
      const double* const gr = grades + slots[i] * W;
      for (std::size_t h = 0; h < H; ++h) {
        V gv;
        std::memcpy(&gv, gr + h * N, sizeof gv);
        st[h] = gv < st[h] ? gv : st[h];
      }
    }
    double* const out = acts + consequent * W;
    for (std::size_t h = 0; h < H; ++h) {
      V acc;
      std::memcpy(&acc, out + h * N, sizeof acc);
      acc = acc > st[h] ? acc : st[h];
      std::memcpy(out + h * N, &acc, sizeof acc);
    }
    slots += ni;
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2")))
#endif
void InferenceEngine::infer_batch_w4(std::span<const double> crisp_inputs,
                                     std::size_t rows,
                                     InferenceScratch& scratch) const {
  infer_lanes<4>(crisp_inputs, rows, scratch);
}

void InferenceEngine::infer_batch_w2(std::span<const double> crisp_inputs,
                                     std::size_t rows,
                                     InferenceScratch& scratch) const {
  infer_lanes<2>(crisp_inputs, rows, scratch);
}

void InferenceEngine::infer_batch_into(std::span<const double> crisp_inputs,
                                       std::size_t rows,
                                       InferenceScratch& scratch) const {
  if (lane_simd_available())
    infer_batch_w4(crisp_inputs, rows, scratch);
  else
    infer_batch_w2(crisp_inputs, rows, scratch);
}

}  // namespace facsp::fuzzy
