// Membership functions for fuzzy sets.
//
// The paper (Fig. 3) uses two shapes: a triangular function
//   f(x; x0, a0, a1)  — peak 1 at x0, falling linearly to 0 at x0-a0 / x0+a1
// and a trapezoidal function
//   g(x; x0, x1, a0, a1) — plateau 1 on [x0, x1], 0 at x0-a0 / x1+a1.
//
// Both (plus the open "shoulder" variants used at universe edges and crisp
// singletons) are represented here by one value-semantic type holding the four
// canonical breakpoints a <= b <= c <= d with membership
//     0 on (-inf, a], rising on [a, b], 1 on [b, c], falling on [c, d],
//     0 on [d, +inf).
// Shoulders use infinite a/b (left shoulder: plateau extends to -inf) or c/d.
#pragma once

#include <iosfwd>
#include <string>

namespace facsp::fuzzy {

/// A (possibly degenerate) trapezoidal membership function.
///
/// Value type; cheap to copy.  All factory functions validate their geometry
/// and throw facsp::ConfigError on non-monotonic breakpoints or non-positive
/// widths where a positive width is required.
class MembershipFunction {
 public:
  /// The paper's f(x; x0, a0, a1): triangle peaking at `center` with left
  /// width `left_width` and right width `right_width` (both > 0).
  static MembershipFunction triangular(double center, double left_width,
                                       double right_width);

  /// The paper's g(x; x0, x1, a0, a1): plateau on [plateau_lo, plateau_hi]
  /// with left width `left_width` and right width `right_width` (both > 0).
  static MembershipFunction trapezoidal(double plateau_lo, double plateau_hi,
                                        double left_width, double right_width);

  /// Open trapezoid whose plateau extends to -infinity: grade is 1 for
  /// x <= plateau_hi, falling to 0 at plateau_hi + right_width.
  static MembershipFunction left_shoulder(double plateau_hi,
                                          double right_width);

  /// Open trapezoid whose plateau extends to +infinity: grade is 0 until
  /// plateau_lo - left_width, 1 for x >= plateau_lo.
  static MembershipFunction right_shoulder(double plateau_lo,
                                           double left_width);

  /// Crisp singleton at x (grade 1 exactly at x, else 0).
  static MembershipFunction singleton(double x);

  /// Raw four-breakpoint constructor (a <= b <= c <= d; a/b may be -inf,
  /// c/d may be +inf).
  static MembershipFunction from_breakpoints(double a, double b, double c,
                                             double d);

  /// Membership grade of x, in [0, 1].
  double grade(double x) const noexcept;

  /// Breakpoint accessors (see class comment for semantics).
  double a() const noexcept { return a_; }
  double b() const noexcept { return b_; }
  double c() const noexcept { return c_; }
  double d() const noexcept { return d_; }

  bool is_singleton() const noexcept { return a_ == d_; }
  bool is_triangular() const noexcept { return b_ == c_ && a_ < b_ && c_ < d_; }

  /// Lowest x at which the alpha-cut starts / highest at which it ends.
  /// alpha must be in (0, 1].  For an open shoulder the corresponding side
  /// is +/-infinity.
  double alpha_cut_lo(double alpha) const;
  double alpha_cut_hi(double alpha) const;

  /// Human-readable description, e.g. "tri(30, 60, 90)".
  std::string describe() const;

  friend bool operator==(const MembershipFunction&,
                         const MembershipFunction&) = default;

 private:
  MembershipFunction(double a, double b, double c, double d);

  double a_, b_, c_, d_;
};

std::ostream& operator<<(std::ostream& os, const MembershipFunction& mf);

}  // namespace facsp::fuzzy
