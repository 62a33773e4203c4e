// Mamdani-style fuzzy inference.
//
// Pipeline (paper Fig. 2): fuzzifier -> inference engine (+FRB) -> defuzzifier.
// This header implements the middle stage with the paper's operators: each
// rule's firing strength is the min of its antecedent grades, and the
// strengths of rules sharing a consequent aggregate by max.  The result is
// one activation level per output term; the defuzzifier clips each output
// term at its activation (min implication) and turns the max envelope into a
// crisp value.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fuzzy/rulebase.h"
#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// True when infer_batch_into() runs its lane kernel 4 doubles wide: an
/// x86-64 CPU with AVX2 (checked once, at the first call).  Otherwise the
/// kernel runs 2 wide (SSE2 on x86-64, NEON on AArch64); both widths are
/// bit-identical to the scalar path.
bool lane_simd_available() noexcept;

/// Per-rule firing record, for explanation/tracing (rule_explorer example).
struct FiredRule {
  std::size_t rule_index = 0;
  double strength = 0.0;  ///< min of the rule's antecedent grades
};

/// Reusable evaluation arena for the allocation-free inference fast path.
///
/// All buffers grow to their steady-state size on the first evaluation and
/// are reused afterwards, so repeated infer_into()/evaluate_with() calls
/// perform zero heap allocations.  One scratch may be shared across
/// controllers (each call resizes logically, capacity only ever grows) but
/// not across threads.
struct InferenceScratch {
  std::vector<double> grades;       ///< fuzzified input grades, flat per input
  std::vector<double> activations;  ///< one activation per output term
  std::vector<FiredRule> fired;     ///< fired-rule buffer (traced path only)

  // Structure-of-arrays block for the batched path (infer_batch_into /
  // evaluate_batch_with): lane-major flat arrays of kLanes decisions each,
  // laid out so one index step moves across decisions, not across terms,
  // and one vector operation covers several decisions.
  std::vector<double> lane_inputs;       ///< [input * kLanes + lane]
  std::vector<double> lane_grades;       ///< [grade slot * kLanes + lane]
  std::vector<double> lane_activations;  ///< [output term * kLanes + lane]

  // Row staging for multi-controller cascades over one batch (the fuzzy CAC
  // decide_batch builds FLC1's rows, then FLC2's rows, in place here).
  std::vector<double> batch_rows;  ///< row-major [row * input_count + i]
  std::vector<double> batch_out;   ///< one crisp value per row
};

/// Stateless Mamdani inference engine over a fixed (inputs, output, rules)
/// triple.  Thread-safe: evaluation does not mutate the engine.
class InferenceEngine {
 public:
  /// Decisions processed per structure-of-arrays block by the batched path.
  static constexpr std::size_t kLanes = 8;

  /// Stack bounds of the scalar path's non-zero-term enumeration: at most
  /// kMaxInputs inputs of at most kMaxTerms terms each.  The paper's
  /// controllers have 3 inputs of at most 7 terms.
  static constexpr std::size_t kMaxInputs = 8;
  static constexpr std::size_t kMaxTerms = 16;

  /// The referenced variables and rule base must outlive the engine; the
  /// FuzzyController owns all of them and the engine internally.  Throws
  /// facsp::ConfigError when the inputs exceed kMaxInputs/kMaxTerms.
  InferenceEngine(const std::vector<LinguisticVariable>& inputs,
                  const LinguisticVariable& output, const RuleBase& rules);

  /// Run fuzzification + rule evaluation + aggregation for the crisp input
  /// vector (one value per input variable, clamped to each universe):
  /// fuzzify into scratch.grades and aggregate into scratch.activations
  /// (one entry per output term).  No fired-rule bookkeeping.  Zero heap
  /// allocations once scratch is warm.
  /// Precondition: crisp_inputs.size() == number of input variables.
  void infer_into(std::span<const double> crisp_inputs,
                  InferenceScratch& scratch) const;

  /// As infer_into(), but also fills scratch.fired with every rule of
  /// non-zero firing strength, descending by strength.
  void infer_traced_into(std::span<const double> crisp_inputs,
                         InferenceScratch& scratch) const;

  /// Structure-of-arrays batched inference over `rows` decisions (1 <=
  /// rows <= kLanes): `crisp_inputs` holds rows * input-count values
  /// row-major; scratch.lane_activations receives every output term's
  /// activation per lane ([term * kLanes + lane]; lanes >= rows are padding
  /// and must be ignored).  Per lane the result is bit-identical to
  /// infer_into() on that lane's row (the kernel uses only min/max/and/sub/
  /// div lane ops, never FMA, in the scalar evaluation order).  Runs
  /// infer_batch_w4() when lane_simd_available(), else infer_batch_w2().
  /// Zero heap allocations once scratch is warm.
  void infer_batch_into(std::span<const double> crisp_inputs,
                        std::size_t rows, InferenceScratch& scratch) const;

  /// The lane kernel at one vector width: 4 doubles per operation (built
  /// for AVX2; call only when lane_simd_available()) or 2 (baseline).  Same
  /// contract as infer_batch_into().
  void infer_batch_w4(std::span<const double> crisp_inputs, std::size_t rows,
                      InferenceScratch& scratch) const;
  void infer_batch_w2(std::span<const double> crisp_inputs, std::size_t rows,
                      InferenceScratch& scratch) const;

 private:
  /// Per grade slot: the term geometry the branchless lane fuzzifier needs.
  /// `ba`/`dc` are the exact denominators (b - a, d - c) the scalar grade()
  /// divides by, precomputed so the lane kernel performs the identical
  /// division.  `fast` is false for singletons and zero-width-edge
  /// degenerates, which take a scalar per-lane fallback through mf->grade().
  struct LaneTerm {
    double a = 0.0, ba = 1.0, d = 0.0, dc = 1.0;
    double lo = 0.0, hi = 0.0;  ///< universe clamp bounds
    bool left_open = false;     ///< b == -inf: rising edge is constant 1
    bool right_open = false;    ///< c == +inf: falling edge is constant 1
    bool fast = false;
    const MembershipFunction* mf = nullptr;
  };

  /// Shared core of the scalar entry points.  Only the traced instantiation
  /// collects fired rules (in table order) into scratch.fired, so the
  /// untraced loop makes no call that could force its loads to repeat.
  template <bool kTraced>
  void run(std::span<const double> crisp_inputs,
           InferenceScratch& scratch) const;

  /// The lane kernel, N doubles per vector operation (inference_batch.cc).
  template <std::size_t N>
  void infer_lanes(std::span<const double> crisp_inputs, std::size_t rows,
                   InferenceScratch& scratch) const;

  const std::vector<LinguisticVariable>& inputs_;
  const LinguisticVariable& output_;
  const RuleBase& rules_;
  std::vector<std::size_t> grade_offsets_;  ///< input i's offset in grades
  std::size_t total_grades_ = 0;
  /// Grade slot of each rule's antecedents, input_count() per rule in
  /// table order: the lane kernel's rule fold reads grades through it.
  std::vector<std::uint32_t> rule_slots_;
  std::vector<LaneTerm> lane_terms_;  ///< one per grade slot
};

}  // namespace facsp::fuzzy
