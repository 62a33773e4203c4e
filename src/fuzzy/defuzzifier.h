// Defuzzification: turn an aggregated output fuzzy set into a crisp value.
//
// The paper uses a standard Mamdani pipeline: each output term is clipped at
// its activation (min implication), the clipped terms aggregate by max, and
// the crisp value is the centroid (centre of gravity) of that envelope.
//
// A Defuzzifier is built for one output variable and computes that centroid
// in closed form.  It needs the variable's terms to form an ordered
// partition with only adjacent-pair support overlap, as every paper output
// does (Cv's 9 terms, A/R's 5); for any other layout the constructor throws
// ConfigError, which FuzzyController's constructor, and so
// ControllerBuilder::build(), passes on.  The constructor stores each
// term's membership over its universe-clipped support, and each adjacent
// pair's min over their overlap, as polylines whose segments are affine.  A
// call clips those polylines at the activations (min implication: at most
// one alpha crossing per segment, found by a multiply with the segment's
// precomputed dx/dv) and integrates area and first moment in closed form;
// the max envelope decomposes by inclusion-exclusion as single-term
// integrals minus the adjacent-pair integrals.  No sampling and no division
// before the final moment / area.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// Analytic centroid defuzzifier bound to one output variable.
class Defuzzifier {
 public:
  /// Bind to `output` and build its polylines.  The binding is by variable
  /// identity (address); `output` must outlive the defuzzifier (the
  /// FuzzyController owns both).  Throws facsp::ConfigError when `output`'s
  /// terms are not an ordered partition with adjacent-only overlap.
  explicit Defuzzifier(const LinguisticVariable& output);

  /// True when this defuzzifier was built for this very variable.
  bool bound_to(const LinguisticVariable& output) const noexcept;

  /// Crisp output for one evaluation: activations one per output term.
  /// Requires bound_to(output) (throws ContractViolation otherwise).  When
  /// no rule fired (empty set) returns the midpoint of the universe — a
  /// neutral value; FACS-P's rule bases are complete so this only happens
  /// for out-of-universe abuse.  Zero heap allocations.
  double defuzzify(std::span<const double> activations,
                   const LinguisticVariable& output) const;

 private:
  /// One affine piece of a membership polyline: value v0 at x0 rising
  /// (or falling) to v1 at x1; dxdv = (x1 - x0) / (v1 - v0), 0 when flat.
  struct Segment {
    double x0, x1, v0, v1, dxdv;
  };

  double centroid_analytic(std::span<const double> activations,
                           const LinguisticVariable& output) const;

  const LinguisticVariable* variable_;  ///< identity key
  /// Polyline p is segments_[first_[p] .. first_[p + 1]); p < terms is term
  /// p's membership, p = terms + k the min of terms k and k + 1.
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> first_;
};

}  // namespace facsp::fuzzy
