#include "fuzzy/membership.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::fuzzy {

namespace {

void require_finite(double x, const char* name) {
  if (!std::isfinite(x))
    throw ConfigError(std::string("membership function: parameter '") + name +
                      "' must be finite");
}

void require_positive(double x, const char* name) {
  require_finite(x, name);
  if (x <= 0.0)
    throw ConfigError(std::string("membership function: width '") + name +
                      "' must be > 0, got " + std::to_string(x));
}

}  // namespace

MembershipFunction::MembershipFunction(double a, double b, double c, double d)
    : a_(a), b_(b), c_(c), d_(d) {
  if (!(a <= b && b <= c && c <= d))
    throw ConfigError(
        "membership function: breakpoints must satisfy a <= b <= c <= d");
  if (std::isnan(a) || std::isnan(b) || std::isnan(c) || std::isnan(d))
    throw ConfigError("membership function: breakpoints must not be NaN");
}

MembershipFunction MembershipFunction::triangular(double center,
                                                  double left_width,
                                                  double right_width) {
  require_finite(center, "center");
  require_positive(left_width, "left_width");
  require_positive(right_width, "right_width");
  return MembershipFunction(center - left_width, center, center,
                            center + right_width);
}

MembershipFunction MembershipFunction::trapezoidal(double plateau_lo,
                                                   double plateau_hi,
                                                   double left_width,
                                                   double right_width) {
  require_finite(plateau_lo, "plateau_lo");
  require_finite(plateau_hi, "plateau_hi");
  require_positive(left_width, "left_width");
  require_positive(right_width, "right_width");
  if (plateau_lo > plateau_hi)
    throw ConfigError("membership function: plateau_lo > plateau_hi");
  return MembershipFunction(plateau_lo - left_width, plateau_lo, plateau_hi,
                            plateau_hi + right_width);
}

MembershipFunction MembershipFunction::left_shoulder(double plateau_hi,
                                                     double right_width) {
  require_finite(plateau_hi, "plateau_hi");
  require_positive(right_width, "right_width");
  return MembershipFunction(-kInf, -kInf, plateau_hi,
                            plateau_hi + right_width);
}

MembershipFunction MembershipFunction::right_shoulder(double plateau_lo,
                                                      double left_width) {
  require_finite(plateau_lo, "plateau_lo");
  require_positive(left_width, "left_width");
  return MembershipFunction(plateau_lo - left_width, plateau_lo, kInf, kInf);
}

MembershipFunction MembershipFunction::singleton(double x) {
  require_finite(x, "x");
  return MembershipFunction(x, x, x, x);
}

MembershipFunction MembershipFunction::from_breakpoints(double a, double b,
                                                        double c, double d) {
  return MembershipFunction(a, b, c, d);
}

double MembershipFunction::grade(double x) const noexcept {
  if (std::isnan(x)) return 0.0;
  if (is_singleton()) return x == a_ ? 1.0 : 0.0;
  if (x <= a_ || x >= d_) {
    // Open shoulders: the plateau itself extends to the infinity, so a point
    // "beyond" the infinite side is impossible; but x exactly at a finite
    // support edge is 0 for the closed sides.
    if (x <= a_ && b_ == -kInf) return 1.0;  // unreachable (a_=-inf), safety
    if (x >= d_ && c_ == kInf) return 1.0;   // unreachable (d_=+inf), safety
    return 0.0;
  }
  // Interior (a, d): min(rise, fall, 1) with no branch on x's position.
  // On the plateau both edge ratios have numerator >= denominator > 0, so
  // each quotient rounds to >= 1 and the min yields exactly 1.0; on the
  // rising edge the falling ratio is >= 1 and vice versa, so the min picks
  // the exact same division the branchy form evaluated — bit-identical
  // output.  The remaining two ternaries compile to min/max instructions;
  // the shoulder checks are per-object constants (perfectly predicted),
  // unlike the per-call x < b_ / x <= c_ branches they replace.
  const double rise = b_ == -kInf ? 1.0 : (x - a_) / (b_ - a_);
  const double fall = c_ == kInf ? 1.0 : (d_ - x) / (d_ - c_);
  const double g = rise < fall ? rise : fall;
  return g < 1.0 ? g : 1.0;
}

double MembershipFunction::alpha_cut_lo(double alpha) const {
  FACSP_EXPECTS(alpha > 0.0 && alpha <= 1.0);
  if (!std::isfinite(b_)) return -kInf;
  if (is_singleton()) return a_;
  return a_ + alpha * (b_ - a_);
}

double MembershipFunction::alpha_cut_hi(double alpha) const {
  FACSP_EXPECTS(alpha > 0.0 && alpha <= 1.0);
  if (!std::isfinite(c_)) return kInf;
  if (is_singleton()) return d_;
  return d_ - alpha * (d_ - c_);
}

std::string MembershipFunction::describe() const {
  std::ostringstream os;
  if (is_singleton()) {
    os << "singleton(" << a_ << ")";
  } else if (b_ == -kInf) {
    os << "lshoulder(" << c_ << ", " << d_ << ")";
  } else if (c_ == kInf) {
    os << "rshoulder(" << a_ << ", " << b_ << ")";
  } else if (is_triangular()) {
    os << "tri(" << a_ << ", " << b_ << ", " << d_ << ")";
  } else {
    os << "trap(" << a_ << ", " << b_ << ", " << c_ << ", " << d_ << ")";
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const MembershipFunction& mf) {
  return os << mf.describe();
}

}  // namespace facsp::fuzzy
