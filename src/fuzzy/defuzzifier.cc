#include "fuzzy/defuzzifier.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/expects.h"

namespace facsp::fuzzy {

namespace {

// --- analytic alpha-cut centroid -------------------------------------------
//
// Under min (clip) implication a clipped piecewise-linear term is the
// pointwise MIN of at most three affine functions of y: the alpha plateau,
// the rising edge and the falling edge.  A min of affine functions is
// concave piecewise linear, so its only breakpoints are pairwise line
// crossings and it can be integrated exactly with the trapezoid rule between
// consecutive crossings — no term-piece domain bookkeeping at all.

/// A small bag of affine functions y -> s*y + t representing one concave
/// min.  Capacity 6: {plateau, rise, fall} for each term of an adjacent
/// overlap pair.
struct AffineMin {
  double s[6];
  double t[6];
  int n = 0;

  void add(double slope, double intercept) noexcept {
    s[n] = slope;
    t[n] = intercept;
    ++n;
  }

  double eval(double x) const noexcept {
    double v = s[0] * x + t[0];
    for (int i = 1; i < n; ++i) {
      const double w = s[i] * x + t[i];
      v = w < v ? w : v;
    }
    return v;
  }
};

/// Exactly integrate m(y) = min_i(s_i*y + t_i) over [x0, x1], adding
/// sign * (area, first moment) into the accumulators.  Between consecutive
/// pairwise crossings m is affine, so the trapezoid rule is exact; the
/// closed-form first moment of an affine segment is
///   integral y*m(y) dy = h/6 * (m0*(2*x0 + x1) + m1*(x0 + 2*x1)).
void integrate_concave_min(const AffineMin& f, double x0, double x1,
                           double sign, double& area,
                           double& moment) noexcept {
  if (!(x0 < x1)) return;
  double xs[2 + 15];  // endpoints + C(6,2) pairwise crossings
  int m = 0;
  xs[m++] = x0;
  for (int i = 0; i < f.n; ++i) {
    for (int j = i + 1; j < f.n; ++j) {
      const double ds = f.s[i] - f.s[j];
      if (ds == 0.0) continue;
      const double x = (f.t[j] - f.t[i]) / ds;
      if (x > x0 && x < x1) xs[m++] = x;
    }
  }
  xs[m++] = x1;
  // Candidates arrive nearly sorted; insertion sort is O(m) then.
  for (int i = 1; i < m; ++i) {
    const double v = xs[i];
    int j = i - 1;
    for (; j >= 0 && xs[j] > v; --j) xs[j + 1] = xs[j];
    xs[j + 1] = v;
  }
  double xp = xs[0];
  double mp = f.eval(xp);
  for (int i = 1; i < m; ++i) {
    const double x = xs[i];
    if (!(x > xp)) continue;
    const double mu = f.eval(x);
    const double h = x - xp;
    area += sign * (0.5 * h * (mp + mu));
    moment += sign * (h * (mp * (2.0 * xp + x) + mu * (xp + 2.0 * x)) / 6.0);
    xp = x;
    mp = mu;
  }
}

/// Append the affine pieces of one term clipped at alpha.  Valid on the
/// term's support (where rise/fall are non-negative), which is exactly where
/// it is integrated.
void clipped_term_lines(const MembershipFunction& mf, double alpha,
                        AffineMin& f) noexcept {
  f.add(0.0, alpha);
  const double a = mf.a(), b = mf.b(), c = mf.c(), d = mf.d();
  if (std::isfinite(b) && b > a) f.add(1.0 / (b - a), -a / (b - a));
  if (std::isfinite(c) && d > c) f.add(-1.0 / (d - c), d / (d - c));
}

/// The analytic decomposition needs the output terms to be sorted left to
/// right with at most adjacent-pair support overlap: then no y has three
/// positive terms, and max over terms = sum of terms minus the min over each
/// adjacent overlapping pair (inclusion-exclusion that terminates at pairs).
/// Every paper output variable (Cv's 9-term and A/R's 5-term uniform
/// partitions) satisfies this; anything else falls back to the grid.
bool ordered_adjacent_partition(const LinguisticVariable& v) noexcept {
  const auto& terms = v.terms();
  const std::size_t n = terms.size();
  for (std::size_t k = 0; k < n; ++k) {
    const MembershipFunction& mf = terms[k].mf;
    if (k + 1 < n) {
      const MembershipFunction& nx = terms[k + 1].mf;
      if (!(mf.a() <= nx.a() && mf.d() <= nx.d())) return false;
    }
    if (k + 2 < n && !(mf.d() <= terms[k + 2].mf.a())) return false;
  }
  return true;
}

}  // namespace

const char* to_string(DefuzzMethod m) noexcept {
  switch (m) {
    case DefuzzMethod::kCentroid: return "centroid";
    case DefuzzMethod::kBisector: return "bisector";
    case DefuzzMethod::kMeanOfMaximum: return "mom";
    case DefuzzMethod::kSmallestOfMaximum: return "som";
    case DefuzzMethod::kLargestOfMaximum: return "lom";
    case DefuzzMethod::kWeightedAverage: return "wavg";
  }
  return "centroid";
}

Defuzzifier::Defuzzifier(DefuzzMethod method, int resolution)
    : method_(method), resolution_(resolution) {
  if (resolution_ < 8)
    throw ConfigError("defuzzifier: resolution must be >= 8");
}

void Defuzzifier::prime(const LinguisticVariable& output) {
  // Weighted average reads only term core centres, but it is bound to its
  // variable like every other method, so it gets the same grid.
  auto grid = std::make_shared<Grid>();
  grid->variable = &output;
  grid->analytic_ok = ordered_adjacent_partition(output);
  const double lo = output.universe_lo();
  const double hi = output.universe_hi();
  const double dy = (hi - lo) / (resolution_ - 1);
  const std::size_t n = static_cast<std::size_t>(resolution_);
  const std::size_t terms = output.term_count();
  grid->ys.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    grid->ys[i] = lo + static_cast<double>(i) * dy;
  grid->term_grades.resize(terms * n);
  for (std::size_t k = 0; k < terms; ++k) {
    const MembershipFunction& mf = output.term(k).mf;
    double* row = grid->term_grades.data() + k * n;
    for (std::size_t i = 0; i < n; ++i) row[i] = mf.grade(grid->ys[i]);
  }
  grid_ = std::move(grid);
}

bool Defuzzifier::primed_for(const LinguisticVariable& output) const noexcept {
  // The shape check guards the address key: if a new variable reuses a
  // destroyed variable's address with a different term count, the stale
  // grid must not match.
  return grid_ != nullptr && grid_->variable == &output &&
         grid_->term_grades.size() == output.term_count() * grid_->ys.size();
}

double Defuzzifier::defuzzify(std::span<const double> activations,
                              const LinguisticVariable& output,
                              std::vector<double>& mu_scratch) const {
  FACSP_EXPECTS_MSG(primed_for(output), "defuzzifier is not primed for '"
                                            << output.name() << "'");
  FACSP_EXPECTS(activations.size() == output.term_count());
  bool empty = true;
  for (double a : activations) {
    if (a > 0.0) {
      empty = false;
      break;
    }
  }
  if (empty) return 0.5 * (output.universe_lo() + output.universe_hi());

  if (method_ == DefuzzMethod::kWeightedAverage)
    return weighted_average(activations, output);
  if (analytic_ && method_ == DefuzzMethod::kCentroid && grid_->analytic_ok)
    return centroid_analytic(activations, output);
  return defuzzify_grid(*grid_, activations, output, mu_scratch);
}

double Defuzzifier::defuzzify_grid(const Grid& grid,
                                   std::span<const double> activations,
                                   const LinguisticVariable& output,
                                   std::vector<double>& mu_scratch) const {
  const std::size_t n = grid.ys.size();
  const double* const ys = grid.ys.data();
  // Max-aggregate the clipped term columns into the sample buffer, in term
  // order.
  mu_scratch.assign(n, 0.0);
  double* const mu = mu_scratch.data();
  for (std::size_t k = 0; k < activations.size(); ++k) {
    const double a = activations[k];
    if (a <= 0.0) continue;
    const double* row = grid.term_grades.data() + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double g = a < row[i] ? a : row[i];
      mu[i] = mu[i] > g ? mu[i] : g;
    }
  }

  const double mid = 0.5 * (output.universe_lo() + output.universe_hi());
  switch (method_) {
    case DefuzzMethod::kCentroid:
    case DefuzzMethod::kBisector: {
      // One shared accumulation pass: trapezoid-weighted moments for the
      // centroid, the unweighted mass for the bisector.
      double num = 0.0, den = 0.0, total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double w = (i == 0 || i == n - 1) ? 0.5 : 1.0;
        const double m = mu[i] * w;
        num += m * ys[i];
        den += m;
        total += mu[i];
      }
      if (method_ == DefuzzMethod::kCentroid)
        return den <= 0.0 ? mid : num / den;
      if (total <= 0.0) return mid;
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += mu[i];
        if (acc >= 0.5 * total) return ys[i];
      }
      return output.universe_hi();
    }
    default: {
      double max_mu = 0.0;
      for (std::size_t i = 0; i < n; ++i) max_mu = std::max(max_mu, mu[i]);
      if (max_mu <= 0.0) return mid;
      const double tol = 1e-9;
      double first = output.universe_hi(), last = output.universe_lo();
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (mu[i] >= max_mu - tol) {
          first = std::min(first, ys[i]);
          last = std::max(last, ys[i]);
          sum += ys[i];
          ++count;
        }
      }
      switch (method_) {
        case DefuzzMethod::kSmallestOfMaximum: return first;
        case DefuzzMethod::kLargestOfMaximum: return last;
        default: return sum / static_cast<double>(count);
      }
    }
  }
}

bool Defuzzifier::analytic_applicable(
    const LinguisticVariable& output) const noexcept {
  return analytic_ && method_ == DefuzzMethod::kCentroid &&
         primed_for(output) && grid_->analytic_ok;
}

double Defuzzifier::centroid_analytic(std::span<const double> activations,
                                      const LinguisticVariable& output) const {
  const double lo = output.universe_lo();
  const double hi = output.universe_hi();
  double area = 0.0, moment = 0.0;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t prev = kNone;      // last integrated term index
  double prev_alpha = 0.0;       // its (clamped) activation
  for (std::size_t k = 0; k < activations.size(); ++k) {
    double alpha = activations[k];
    if (alpha <= 0.0) continue;
    const MembershipFunction& mf = output.term(k).mf;
    if (mf.is_singleton()) continue;  // zero measure under any integral
    // Clip implication saturates at the term's height 1, so alpha > 1 (only
    // reachable through the raw API) behaves exactly like alpha == 1.
    if (alpha > 1.0) alpha = 1.0;
    AffineMin one;
    clipped_term_lines(mf, alpha, one);
    integrate_concave_min(one, std::max(mf.a(), lo), std::min(mf.d(), hi),
                          1.0, area, moment);
    if (prev != kNone && k == prev + 1) {
      // Adjacent overlap: max(f, g) = f + g - min(f, g), and the partition
      // property guarantees no third term is positive there.
      const MembershipFunction& pm = output.term(prev).mf;
      AffineMin pair;
      clipped_term_lines(pm, prev_alpha, pair);
      clipped_term_lines(mf, alpha, pair);
      integrate_concave_min(pair, std::max(mf.a(), lo), std::min(pm.d(), hi),
                            -1.0, area, moment);
    }
    prev = k;
    prev_alpha = alpha;
  }
  if (area <= 0.0) return 0.5 * (lo + hi);
  return moment / area;
}

double Defuzzifier::weighted_average(std::span<const double> activations,
                                     const LinguisticVariable& output) const {
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < activations.size(); ++k) {
    const double a = activations[k];
    if (a <= 0.0) continue;
    num += a * output.term(k).mf.core_center();
    den += a;
  }
  if (den <= 0.0)
    return 0.5 * (output.universe_lo() + output.universe_hi());
  return num / den;
}

}  // namespace facsp::fuzzy
