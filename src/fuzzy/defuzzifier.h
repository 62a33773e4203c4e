// Defuzzification: turn an aggregated output fuzzy set into a crisp value.
//
// The paper uses a standard Mamdani pipeline: each output term is clipped at
// its activation (min implication), the clipped terms aggregate by max, and
// the centroid (centre of gravity) of that envelope is the default crisp
// value.  Alternative methods are provided for the ablation study
// (bench_ablation_defuzz) and for applications with different latency or
// smoothness needs.
//
// A Defuzzifier serves exactly one output variable: prime() builds that
// variable's sample tables, and defuzzify() with any other variable (or
// before prime()) is a contract violation.  FuzzyController primes its
// defuzzifier at construction.  Each integral method then has two paths:
//  * the grid path reads the precomputed per-term grade rows — tight fused
//    loops over flat arrays with zero allocations;
//  * for the centroid method over an output variable whose terms form an
//    ordered partition with only adjacent-pair support overlap (every paper
//    variable) the centroid is computed *analytically*.  prime() stores each
//    term's membership over its universe-clipped support, and each adjacent
//    pair's min over their overlap, as polylines whose segments are affine.
//    A call clips those polylines at the activations (min implication: at
//    most one alpha crossing per segment, found by a multiply with the
//    segment's precomputed dx/dv) and integrates area and first moment in
//    closed form; the max envelope decomposes by inclusion-exclusion as
//    single-term integrals minus the adjacent-pair integrals.  No
//    O(resolution) work and no division before the final moment / area.
// Other methods and term layouts take the grid automatically;
// set_analytic_centroid(false) forces the grid path (used by the
// grid-vs-analytic cross-checks).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// Supported defuzzification methods.
enum class DefuzzMethod {
  kCentroid,           ///< centre of gravity of the aggregated set (default)
  kBisector,           ///< vertical line splitting the area in half
  kMeanOfMaximum,      ///< mean of the y values attaining the maximum grade
  kSmallestOfMaximum,  ///< smallest y attaining the maximum grade
  kLargestOfMaximum,   ///< largest y attaining the maximum grade
  kWeightedAverage,    ///< activation-weighted average of term core centers
};

/// Short method name ("centroid", "bisector", "mom", "som", "lom", "wavg"),
/// printed by the defuzzification ablation bench.
const char* to_string(DefuzzMethod m) noexcept;

/// Numeric defuzzifier over a bounded output universe.
///
/// All integral methods sample the aggregated membership on a uniform grid
/// of `resolution` points across the output variable's universe; 512 points
/// give < 1e-3 absolute error for the paper's piecewise-linear sets.
class Defuzzifier {
 public:
  explicit Defuzzifier(DefuzzMethod method = DefuzzMethod::kCentroid,
                       int resolution = 512);

  /// Bind the defuzzifier to `output` and precompute its sample grid: the y
  /// value of every grid point and each term's membership grade at those
  /// points.  The binding is by variable identity (address); `output` must
  /// outlive it (the FuzzyController owns both).  Copies of a primed
  /// defuzzifier share the immutable grid.
  void prime(const LinguisticVariable& output);

  /// True when prime() was last called with this very variable.
  bool primed_for(const LinguisticVariable& output) const noexcept;

  /// Crisp output for one evaluation: activations one per output term,
  /// `mu_scratch` a reusable sample buffer (scratch.mu of the
  /// InferenceScratch threaded through the controller).  Requires
  /// primed_for(output) (throws ContractViolation otherwise).  When no rule
  /// fired (empty set) returns the midpoint of the universe — a neutral
  /// value; FACS-P's rule bases are complete so this only happens for
  /// out-of-universe abuse.  Zero heap allocations once `mu_scratch` is
  /// warm.
  double defuzzify(std::span<const double> activations,
                   const LinguisticVariable& output,
                   std::vector<double>& mu_scratch) const;

  DefuzzMethod method() const noexcept { return method_; }
  int resolution() const noexcept { return resolution_; }

  /// True when defuzzify(..., output, ...) would take the analytic path:
  /// the centroid method, primed for `output`, analytic centroids enabled,
  /// and `output`'s terms form an ordered adjacent-overlap partition.
  bool analytic_applicable(const LinguisticVariable& output) const noexcept;

  /// Enable/disable the analytic centroid path (default: enabled).  With it
  /// disabled every centroid evaluation uses the resolution-point grid —
  /// retained as an independent cross-check and for error measurement.
  void set_analytic_centroid(bool enabled) noexcept { analytic_ = enabled; }

 private:
  /// One affine piece of a membership polyline: value v0 at x0 rising
  /// (or falling) to v1 at x1; dxdv = (x1 - x0) / (v1 - v0), 0 when flat.
  struct Segment {
    double x0, x1, v0, v1, dxdv;
  };

  /// Precomputed sample tables for one output variable.  Immutable after
  /// construction and shared by copies of the defuzzifier.
  struct Grid {
    const LinguisticVariable* variable = nullptr;  ///< identity key
    std::vector<double> ys;           ///< y value of each grid point
    std::vector<double> term_grades;  ///< term-major: [term * resolution + i]
    bool analytic_ok = false;  ///< term layout admits the analytic centroid
    /// Analytic-centroid polylines (empty unless analytic_ok).  Polyline p
    /// is segments[first[p] .. first[p + 1]); p < terms is term p's
    /// membership, p = terms + k the min of terms k and k + 1.
    std::vector<Segment> segments;
    std::vector<std::uint32_t> first;
  };

  double defuzzify_grid(const Grid& grid, std::span<const double> activations,
                        const LinguisticVariable& output,
                        std::vector<double>& mu_scratch) const;

  double centroid_analytic(std::span<const double> activations,
                           const LinguisticVariable& output) const;
  double weighted_average(std::span<const double> activations,
                          const LinguisticVariable& output) const;

  DefuzzMethod method_;
  int resolution_;
  bool analytic_ = true;
  std::shared_ptr<const Grid> grid_;
};

}  // namespace facsp::fuzzy
