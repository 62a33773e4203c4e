#include "fuzzy/defuzzifier.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/expects.h"

namespace facsp::fuzzy {

namespace {

// Under min (clip) implication the aggregated set is max_k min(alpha_k, g_k)
// with every g_k piecewise linear.  The constructor cuts each g_k, and each
// adjacent pair's min(g_k, g_{k+1}), into affine segments once; a call only
// clips those segments at its activations and integrates them exactly.  (The
// helpers are templated on the segment type: Defuzzifier::Segment is
// private.)

/// Value at x of the affine piece of `mf` that covers m, for m strictly
/// inside the support and x in the same piece (its closure).
double piece_value(const MembershipFunction& mf, double m, double x) noexcept {
  if (m < mf.b()) return (x - mf.a()) / (mf.b() - mf.a());
  if (m <= mf.c()) return 1.0;
  return (mf.d() - x) / (mf.d() - mf.c());
}

template <typename Segment>
void push_segment(double x0, double x1, double v0, double v1,
                  std::vector<Segment>& out) {
  if (!(x0 < x1)) return;
  out.push_back({x0, x1, v0, v1, v1 != v0 ? (x1 - x0) / (v1 - v0) : 0.0});
}

/// Append min(f, g) on [x0, x1] as affine segments: vertices at every
/// breakpoint of f and g inside the interval, and between two of them at
/// the crossing of f's and g's pieces when they cross.  (f == g gives the
/// term's own polyline.)  Both supports must cover [x0, x1].
template <typename Segment>
void append_min_polyline(const MembershipFunction& f,
                         const MembershipFunction& g, double x0, double x1,
                         std::vector<Segment>& out) {
  if (!(x0 < x1)) return;
  std::vector<double> xs = {x0, x1};
  for (const MembershipFunction* mf : {&f, &g})
    for (double x : {mf->a(), mf->b(), mf->c(), mf->d()})
      if (x > x0 && x < x1) xs.push_back(x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  for (std::size_t i = 1; i < xs.size(); ++i) {
    const double lo = xs[i - 1], hi = xs[i];
    const double m = 0.5 * (lo + hi);
    const double f0 = piece_value(f, m, lo), f1 = piece_value(f, m, hi);
    const double g0 = piece_value(g, m, lo), g1 = piece_value(g, m, hi);
    const double d0 = f0 - g0, d1 = f1 - g1;
    const double v0 = std::min(f0, g0), v1 = std::min(f1, g1);
    if ((d0 < 0.0 && d1 > 0.0) || (d0 > 0.0 && d1 < 0.0)) {
      const double xc = lo + (hi - lo) * (d0 / (d0 - d1));
      const double vc =
          std::min(piece_value(f, m, xc), piece_value(g, m, xc));
      push_segment(lo, xc, v0, vc, out);
      push_segment(xc, hi, vc, v1, out);
    } else {
      push_segment(lo, hi, v0, v1, out);
    }
  }
}

/// Twice the area and six times the first moment of h(y) = v0 + (v1 - v0) *
/// (y - x0) / (x1 - x0) over [x0, x1] (trapezoid moment formula).
inline void add_trapezoid(double x0, double x1, double v0, double v1,
                          double& area2, double& moment6) noexcept {
  const double h = x1 - x0;
  area2 += h * (v0 + v1);
  moment6 += h * (v0 * (2.0 * x0 + x1) + v1 * (x0 + 2.0 * x1));
}

/// Integrate min(alpha, P) over the polyline [s, e): a segment lies wholly
/// below alpha, wholly above it, or crosses it once at x0 + (alpha - v0) *
/// dxdv.
template <typename Segment>
void add_clipped(const Segment* s, const Segment* e, double alpha,
                 double& area2, double& moment6) noexcept {
  for (; s != e; ++s) {
    const bool lo_in = s->v0 <= alpha, hi_in = s->v1 <= alpha;
    if (lo_in && hi_in) {
      add_trapezoid(s->x0, s->x1, s->v0, s->v1, area2, moment6);
    } else if (!lo_in && !hi_in) {
      add_trapezoid(s->x0, s->x1, alpha, alpha, area2, moment6);
    } else {
      const double xc = s->x0 + (alpha - s->v0) * s->dxdv;
      if (lo_in) {
        add_trapezoid(s->x0, xc, s->v0, alpha, area2, moment6);
        add_trapezoid(xc, s->x1, alpha, alpha, area2, moment6);
      } else {
        add_trapezoid(s->x0, xc, alpha, alpha, area2, moment6);
        add_trapezoid(xc, s->x1, alpha, s->v1, area2, moment6);
      }
    }
  }
}

/// The analytic decomposition needs the output terms to be sorted left to
/// right with at most adjacent-pair support overlap: then no y has three
/// positive terms, and max over terms = sum of terms minus the min over each
/// adjacent overlapping pair (inclusion-exclusion that terminates at pairs).
/// Every paper output variable (Cv's 9-term and A/R's 5-term uniform
/// partitions) satisfies this; the Defuzzifier refuses anything else.
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

Defuzzifier::Defuzzifier(const LinguisticVariable& output)
    : variable_(&output) {
  if (!ordered_adjacent_partition(output))
    throw ConfigError("defuzzifier: the terms of output '" + output.name() +
                      "' are not an ordered partition with adjacent-only "
                      "overlap, which the analytic centroid needs");
  // Term polylines, then adjacent-pair polylines over each overlap (the
  // partition keeps an overlap inside both supports).  A singleton has zero
  // measure alone and in any pair, so it contributes no segments.
  const double lo = output.universe_lo();
  const double hi = output.universe_hi();
  const std::size_t terms = output.term_count();
  first_.reserve(2 * terms);
  for (std::size_t k = 0; k < terms; ++k) {
    first_.push_back(static_cast<std::uint32_t>(segments_.size()));
    const MembershipFunction& mf = output.term(k).mf;
    append_min_polyline(mf, mf, std::max(mf.a(), lo), std::min(mf.d(), hi),
                        segments_);
  }
  for (std::size_t k = 0; k + 1 < terms; ++k) {
    first_.push_back(static_cast<std::uint32_t>(segments_.size()));
    const MembershipFunction& f = output.term(k).mf;
    const MembershipFunction& g = output.term(k + 1).mf;
    if (f.is_singleton() || g.is_singleton()) continue;
    append_min_polyline(f, g, std::max(g.a(), lo), std::min(f.d(), hi),
                        segments_);
  }
  first_.push_back(static_cast<std::uint32_t>(segments_.size()));
  segments_.shrink_to_fit();
}

bool Defuzzifier::bound_to(const LinguisticVariable& output) const noexcept {
  // The shape check guards the address key: if a new variable reuses a
  // destroyed variable's address with a different term count, the stale
  // polylines must not match.
  return variable_ == &output && first_.size() == 2 * output.term_count();
}

double Defuzzifier::defuzzify(std::span<const double> activations,
                              const LinguisticVariable& output) const {
  FACSP_EXPECTS_MSG(bound_to(output), "defuzzifier is not bound to '"
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
  return centroid_analytic(activations, output);
}

double Defuzzifier::centroid_analytic(std::span<const double> activations,
                                      const LinguisticVariable& output) const {
  const std::size_t terms = activations.size();
  const Segment* const segs = segments_.data();
  const std::uint32_t* const first = first_.data();
  // Twice the area and six times the first moment: the trapezoid weights
  // cancel in the final quotient.
  double area2 = 0.0, moment6 = 0.0;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t prev = kNone;      // last integrated term index
  double prev_alpha = 0.0;       // its (clamped) activation
  for (std::size_t k = 0; k < terms; ++k) {
    double alpha = activations[k];
    if (alpha <= 0.0) continue;
    // Clip implication saturates at the term's height 1, so alpha > 1 (only
    // reachable through the raw API) behaves exactly like alpha == 1.
    if (alpha > 1.0) alpha = 1.0;
    add_clipped(segs + first[k], segs + first[k + 1], alpha, area2, moment6);
    if (prev != kNone && k == prev + 1) {
      // Adjacent overlap: max(f, g) = f + g - min(f, g), and the partition
      // property guarantees no third term is positive there.
      const std::size_t p = terms + prev;
      double pair_area2 = 0.0, pair_moment6 = 0.0;
      add_clipped(segs + first[p], segs + first[p + 1],
                  std::min(prev_alpha, alpha), pair_area2, pair_moment6);
      area2 -= pair_area2;
      moment6 -= pair_moment6;
    }
    prev = k;
    prev_alpha = alpha;
  }
  if (area2 <= 0.0)
    return 0.5 * (output.universe_lo() + output.universe_hi());
  return moment6 / (3.0 * area2);
}

}  // namespace facsp::fuzzy
