// Structure-of-arrays batched inference: the lane kernels behind
// InferenceEngine::infer_batch_into().
//
// Layout: every per-decision quantity is lane-major — kLanes consecutive
// doubles per input / grade slot / output term, one per decision — so the
// innermost loops step across decisions, not terms.  The generic kernels are
// flat branch-free loops the compiler auto-vectorizes; with FACSP_SIMD the
// same algorithms are hand-written in AVX2 (runtime-dispatched, no global
// -mavx2) or NEON intrinsics.
//
// Bit-identity contract (load-bearing for the PR 2-5 determinism guarantees;
// asserted by tests/fuzzy/test_batch_inference.cc): per lane, every kernel
// performs the exact IEEE operation sequence of the scalar path:
//  * fuzzify: the same clamp ternaries and the same edge-ratio divisions as
//    MembershipFunction::grade(), as min/max selects; a NaN input is blended
//    to 0 by an ordered compare, matching grade()'s isnan guard.  Degenerate
//    shapes (singletons, zero-width edges) take a scalar per-lane fallback
//    through grade() itself.
//  * rules: the strength min-folds antecedent grades in antecedent order and
//    multiplies the weight last, exactly like the scalar loop, then
//    max-aggregates into its consequent.  The scalar loop early-exits once
//    the strength hits 0; evaluating on is value-identical because
//    min(0, g) == 0, 0 * w == 0 and max(acc, 0) == acc for acc in [0, 1].
//  * only min/max/add/sub/mul/div lane ops are used — never FMA — so the
//    intrinsic kernels round exactly like the scalar code.
#include <cmath>
#include <cstdint>
#include <span>

#include "common/expects.h"
#include "common/math_util.h"
#include "fuzzy/inference.h"

#if defined(FACSP_SIMD_ENABLED) && defined(__x86_64__)
#include <immintrin.h>
#elif defined(FACSP_SIMD_ENABLED) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace facsp::fuzzy {

bool lane_simd_available() noexcept {
#if defined(FACSP_SIMD_ENABLED) && defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
#elif defined(FACSP_SIMD_ENABLED) && defined(__aarch64__)
  return true;  // NEON is baseline on AArch64
#else
  return false;
#endif
}

void InferenceEngine::infer_batch_into(std::span<const double> crisp_inputs,
                                       std::size_t rows,
                                       InferenceScratch& scratch) const {
  constexpr std::size_t W = kLanes;
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
  for (std::size_t i = 0; i < ni; ++i)
    for (std::size_t l = 0; l < W; ++l)
      in[i * W + l] = crisp_inputs[(l < rows ? l : 0) * ni + i];
  if (lane_simd_available())
    infer_lanes_simd(scratch);
  else
    infer_lanes_generic(scratch);
}

void InferenceEngine::infer_lanes_generic(InferenceScratch& scratch) const {
  constexpr std::size_t W = kLanes;
  const double* const in = scratch.lane_inputs.data();
  double* const grades = scratch.lane_grades.data();
  double* const acts = scratch.lane_activations.data();

  // Fuzzify: one branchless kernel per (input, term), vectorizable lanes.
  std::size_t s = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const double* const x = in + i * W;
    for (std::size_t t = 0; t < inputs_[i].term_count(); ++t, ++s) {
      const LaneTerm& g = lane_terms_[s];
      double* const out = grades + s * W;
      if (g.fast) {
        for (std::size_t l = 0; l < W; ++l) {
          double cx = x[l];
          cx = cx < g.lo ? g.lo : cx;
          cx = cx > g.hi ? g.hi : cx;
          const double rise = g.left_open ? 1.0 : (cx - g.a) / g.ba;
          const double fall = g.right_open ? 1.0 : (g.d - cx) / g.dc;
          double v = rise < fall ? rise : fall;
          v = v < 1.0 ? v : 1.0;
          v = v > 0.0 ? v : 0.0;
          out[l] = cx == cx ? v : 0.0;  // grade() maps NaN to 0
        }
      } else {
        for (std::size_t l = 0; l < W; ++l)
          out[l] = g.mf->grade(clamp(x[l], g.lo, g.hi));
      }
    }
  }

  // Rules: fold antecedent grades lane-wise, then aggregate per consequent.
  double st[W];
  const std::uint32_t* const slots = rule_slots_.data();
  for (const FlatRule& rule : flat_rules_) {
    for (std::size_t l = 0; l < W; ++l) st[l] = 1.0;
    for (std::uint32_t i = 0; i < rule.count; ++i) {
      const double* const gr = grades + slots[rule.first + i] * W;
      for (std::size_t l = 0; l < W; ++l)
        st[l] = gr[l] < st[l] ? gr[l] : st[l];
    }
    for (std::size_t l = 0; l < W; ++l) st[l] *= rule.weight;
    double* const out = acts + rule.consequent * W;
    for (std::size_t l = 0; l < W; ++l)
      out[l] = out[l] > st[l] ? out[l] : st[l];
  }
}

#if defined(FACSP_SIMD_ENABLED) && defined(__x86_64__)

// AVX2 lanes: kLanes == 8 doubles as two 256-bit halves.  min/max intrinsic
// semantics (return the second operand on ties or NaN) are matched to the
// scalar ternaries operand-by-operand in the comments below.
__attribute__((target("avx2"))) void InferenceEngine::infer_lanes_simd(
    InferenceScratch& scratch) const {
  constexpr std::size_t W = kLanes;
  const double* const in = scratch.lane_inputs.data();
  double* const grades = scratch.lane_grades.data();
  double* const acts = scratch.lane_activations.data();
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d zeros = _mm256_setzero_pd();

  std::size_t s = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const double* const x = in + i * W;
    const __m256d xv[2] = {_mm256_loadu_pd(x), _mm256_loadu_pd(x + 4)};
    for (std::size_t t = 0; t < inputs_[i].term_count(); ++t, ++s) {
      const LaneTerm& g = lane_terms_[s];
      double* const out = grades + s * W;
      if (!g.fast) {
        for (std::size_t l = 0; l < W; ++l)
          out[l] = g.mf->grade(clamp(x[l], g.lo, g.hi));
        continue;
      }
      const __m256d lov = _mm256_set1_pd(g.lo), hiv = _mm256_set1_pd(g.hi);
      const __m256d av = _mm256_set1_pd(g.a), bav = _mm256_set1_pd(g.ba);
      const __m256d dv = _mm256_set1_pd(g.d), dcv = _mm256_set1_pd(g.dc);
      for (int h = 0; h < 2; ++h) {
        // clamp: x < lo ? lo : x  ==  max(lo, x);  then  cx > hi ? hi : cx
        // == min(hi, cx).  Both keep the second operand on ties and pass a
        // NaN x through, exactly like the scalar ternaries.
        __m256d cx = _mm256_max_pd(lov, xv[h]);
        cx = _mm256_min_pd(hiv, cx);
        const __m256d rise =
            g.left_open ? ones : _mm256_div_pd(_mm256_sub_pd(cx, av), bav);
        const __m256d fall =
            g.right_open ? ones : _mm256_div_pd(_mm256_sub_pd(dv, cx), dcv);
        // rise < fall ? rise : fall == min(rise, fall) (NaN rise -> fall).
        __m256d v = _mm256_min_pd(rise, fall);
        v = _mm256_min_pd(v, ones);    // v < 1 ? v : 1
        v = _mm256_max_pd(v, zeros);   // v > 0 ? v : 0
        // cx == cx ? v : 0.0 — zero out NaN-input lanes (+0.0, like the
        // scalar path's literal 0.0).
        v = _mm256_and_pd(v, _mm256_cmp_pd(cx, cx, _CMP_ORD_Q));
        _mm256_storeu_pd(out + 4 * h, v);
      }
    }
  }

  const std::uint32_t* const slots = rule_slots_.data();
  for (const FlatRule& rule : flat_rules_) {
    __m256d st0 = ones, st1 = ones;
    for (std::uint32_t i = 0; i < rule.count; ++i) {
      const double* const gr = grades + slots[rule.first + i] * W;
      // g < st ? g : st == min(g, st); grades are never NaN here.
      st0 = _mm256_min_pd(_mm256_loadu_pd(gr), st0);
      st1 = _mm256_min_pd(_mm256_loadu_pd(gr + 4), st1);
    }
    const __m256d wv = _mm256_set1_pd(rule.weight);
    st0 = _mm256_mul_pd(st0, wv);
    st1 = _mm256_mul_pd(st1, wv);
    double* const out = acts + rule.consequent * W;
    __m256d a0 = _mm256_loadu_pd(out), a1 = _mm256_loadu_pd(out + 4);
    a0 = _mm256_max_pd(a0, st0);  // acc > st ? acc : st
    a1 = _mm256_max_pd(a1, st1);
    _mm256_storeu_pd(out, a0);
    _mm256_storeu_pd(out + 4, a1);
  }
}

#elif defined(FACSP_SIMD_ENABLED) && defined(__aarch64__)

// NEON lanes: kLanes == 8 doubles as four float64x2_t.  FMIN/FMAX propagate
// NaNs where SSE keeps the second operand, but a NaN input lane is forced to
// +0.0 by the final ordered-compare blend either way, so results stay
// bit-identical to the scalar path (non-NaN lanes see plain min/max; the
// only ±0 ties arise between equal +0 values).
void InferenceEngine::infer_lanes_simd(InferenceScratch& scratch) const {
  constexpr std::size_t W = kLanes;
  const double* const in = scratch.lane_inputs.data();
  double* const grades = scratch.lane_grades.data();
  double* const acts = scratch.lane_activations.data();
  const float64x2_t ones = vdupq_n_f64(1.0);
  const float64x2_t zeros = vdupq_n_f64(0.0);

  std::size_t s = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const double* const x = in + i * W;
    for (std::size_t t = 0; t < inputs_[i].term_count(); ++t, ++s) {
      const LaneTerm& g = lane_terms_[s];
      double* const out = grades + s * W;
      if (!g.fast) {
        for (std::size_t l = 0; l < W; ++l)
          out[l] = g.mf->grade(clamp(x[l], g.lo, g.hi));
        continue;
      }
      const float64x2_t lov = vdupq_n_f64(g.lo), hiv = vdupq_n_f64(g.hi);
      const float64x2_t av = vdupq_n_f64(g.a), bav = vdupq_n_f64(g.ba);
      const float64x2_t dv = vdupq_n_f64(g.d), dcv = vdupq_n_f64(g.dc);
      for (int h = 0; h < 4; ++h) {
        float64x2_t cx = vld1q_f64(x + 2 * h);
        cx = vminq_f64(vmaxq_f64(lov, cx), hiv);
        const float64x2_t rise =
            g.left_open ? ones : vdivq_f64(vsubq_f64(cx, av), bav);
        const float64x2_t fall =
            g.right_open ? ones : vdivq_f64(vsubq_f64(dv, cx), dcv);
        float64x2_t v = vminq_f64(rise, fall);
        v = vminq_f64(v, ones);
        v = vmaxq_f64(v, zeros);
        // Zero NaN-input lanes: vceqq is false for NaN, so the bitwise and
        // forces +0.0 there.
        v = vreinterpretq_f64_u64(
            vandq_u64(vreinterpretq_u64_f64(v), vceqq_f64(cx, cx)));
        vst1q_f64(out + 2 * h, v);
      }
    }
  }

  double st[W];
  const std::uint32_t* const slots = rule_slots_.data();
  for (const FlatRule& rule : flat_rules_) {
    for (std::size_t l = 0; l < W; ++l) st[l] = 1.0;
    for (int h = 0; h < 4; ++h) {
      float64x2_t sv = vld1q_f64(st + 2 * h);
      for (std::uint32_t i = 0; i < rule.count; ++i)
        sv = vminq_f64(vld1q_f64(grades + slots[rule.first + i] * W + 2 * h),
                       sv);
      sv = vmulq_f64(sv, vdupq_n_f64(rule.weight));
      double* const out = acts + rule.consequent * W + 2 * h;
      float64x2_t acc = vld1q_f64(out);
      acc = vmaxq_f64(acc, sv);
      vst1q_f64(out, acc);
    }
  }
}

#else

void InferenceEngine::infer_lanes_simd(InferenceScratch& scratch) const {
  // Unreachable (lane_simd_available() is false without FACSP_SIMD); keep
  // the symbol defined for the linker.
  infer_lanes_generic(scratch);
}

#endif

}  // namespace facsp::fuzzy
