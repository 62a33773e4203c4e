#include "fuzzy/defuzzifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "cac/facs_flc.h"
#include "common/error.h"
#include "common/math_util.h"
#include "fuzzy/builder.h"

namespace facsp::fuzzy {
namespace {

struct DefuzzFixture : ::testing::Test {
  // Symmetric three-term output over [-1, 1].
  LinguisticVariable output = VariableBuilder("z", -1.0, 1.0)
                                  .triangular("neg", -0.5, 0.5, 0.5)
                                  .triangular("zero", 0.0, 0.5, 0.5)
                                  .triangular("pos", 0.5, 0.5, 0.5)
                                  .build();

  /// Prime a copy of `d` for `output` and defuzzify `acts`.
  double defuzz(Defuzzifier d, const std::vector<double>& acts) {
    d.prime(output);
    return d.defuzzify(acts, output, mu);
  }

  std::vector<double> mu;
};

TEST_F(DefuzzFixture, CentroidOfSingleSymmetricTerm) {
  const Defuzzifier d(DefuzzMethod::kCentroid, 2048);
  EXPECT_NEAR(defuzz(d, {1.0, 0.0, 0.0}), -0.5, 1e-3);
  EXPECT_NEAR(defuzz(d, {0.0, 1.0, 0.0}), 0.0, 1e-3);
  EXPECT_NEAR(defuzz(d, {0.0, 0.0, 1.0}), 0.5, 1e-3);
}

TEST_F(DefuzzFixture, CentroidOfBalancedMixIsZero) {
  const Defuzzifier d(DefuzzMethod::kCentroid, 2048);
  EXPECT_NEAR(defuzz(d, {0.7, 0.0, 0.7}), 0.0, 1e-3);
}

TEST_F(DefuzzFixture, CentroidShiftsTowardStrongerTerm) {
  const Defuzzifier d(DefuzzMethod::kCentroid, 2048);
  const double toward_pos = defuzz(d, {0.2, 0.0, 0.8});
  EXPECT_GT(toward_pos, 0.15);
  EXPECT_LT(toward_pos, 0.5);
}

TEST_F(DefuzzFixture, EmptySetGivesUniverseMidpoint) {
  EXPECT_DOUBLE_EQ(defuzz(Defuzzifier{}, {0.0, 0.0, 0.0}), 0.0);
}

TEST_F(DefuzzFixture, BisectorMatchesCentroidOnSymmetricSets) {
  const Defuzzifier c(DefuzzMethod::kCentroid, 4096);
  const Defuzzifier b(DefuzzMethod::kBisector, 4096);
  const std::vector<double> set = {0.0, 1.0, 0.0};
  EXPECT_NEAR(defuzz(b, set), defuzz(c, set), 5e-3);
}

TEST_F(DefuzzFixture, MeanOfMaximumPicksPlateauCenter) {
  const Defuzzifier mom(DefuzzMethod::kMeanOfMaximum, 4096);
  // Clipping 'pos' at 0.6 gives a plateau centred at its peak 0.5.
  EXPECT_NEAR(defuzz(mom, {0.0, 0.0, 0.6}), 0.5, 5e-3);
}

TEST_F(DefuzzFixture, SmallestAndLargestOfMaximumBracketMean) {
  const std::vector<double> set = {0.0, 0.0, 0.6};
  const Defuzzifier som(DefuzzMethod::kSmallestOfMaximum, 4096);
  const Defuzzifier lom(DefuzzMethod::kLargestOfMaximum, 4096);
  const Defuzzifier mom(DefuzzMethod::kMeanOfMaximum, 4096);
  const double lo = defuzz(som, set);
  const double hi = defuzz(lom, set);
  const double mid = defuzz(mom, set);
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
  // Plateau of 'pos' clipped at 0.6: from 0.5-0.2 to 0.5+0.2.
  EXPECT_NEAR(lo, 0.3, 5e-3);
  EXPECT_NEAR(hi, 0.7, 5e-3);
}

TEST_F(DefuzzFixture, WeightedAverageUsesCoreCenters) {
  const Defuzzifier w(DefuzzMethod::kWeightedAverage);
  EXPECT_NEAR(defuzz(w, {0.0, 0.25, 0.75}),
              (0.25 * 0.0 + 0.75 * 0.5) / 1.0, 1e-9);
}

TEST_F(DefuzzFixture, ResultAlwaysInsideUniverse) {
  for (auto method :
       {DefuzzMethod::kCentroid, DefuzzMethod::kBisector,
        DefuzzMethod::kMeanOfMaximum, DefuzzMethod::kSmallestOfMaximum,
        DefuzzMethod::kLargestOfMaximum, DefuzzMethod::kWeightedAverage}) {
    const Defuzzifier d(method, 512);
    for (double a = 0.0; a <= 1.0; a += 0.25) {
      for (double b = 0.0; b <= 1.0; b += 0.25) {
        const double y = defuzz(d, {a, 0.1, b});
        EXPECT_GE(y, output.universe_lo()) << to_string(method);
        EXPECT_LE(y, output.universe_hi()) << to_string(method);
      }
    }
  }
}

TEST_F(DefuzzFixture, ResolutionValidation) {
  EXPECT_THROW(Defuzzifier(DefuzzMethod::kCentroid, 4), ConfigError);
  EXPECT_NO_THROW(Defuzzifier(DefuzzMethod::kCentroid, 8));
}

// --- golden parity: table-driven fast path vs naive reference --------------
//
// The reference below is written independently of defuzzifier.cc: it samples
// the aggregated membership straight from the term membership functions.
// The primed (grid) path must agree to 1e-12 for every method and
// resolution.

/// Max over terms of each term clipped at its activation.
double reference_grade(const LinguisticVariable& output,
                       std::span<const double> acts, double y) {
  double acc = 0.0;
  for (std::size_t k = 0; k < acts.size(); ++k) {
    if (acts[k] <= 0.0) continue;
    acc = std::max(acc, std::min(acts[k], output.term(k).mf.grade(y)));
  }
  return acc;
}

double reference_defuzzify(DefuzzMethod method, int res,
                           const LinguisticVariable& output,
                           std::span<const double> acts) {
  const double lo = output.universe_lo();
  const double hi = output.universe_hi();
  const double dy = (hi - lo) / (res - 1);
  auto grade = [&](int i) {
    return reference_grade(output, acts, lo + i * dy);
  };
  switch (method) {
    case DefuzzMethod::kCentroid: {
      double num = 0.0, den = 0.0;
      for (int i = 0; i < res; ++i) {
        const double w = (i == 0 || i == res - 1) ? 0.5 : 1.0;
        num += grade(i) * w * (lo + i * dy);
        den += grade(i) * w;
      }
      return den <= 0.0 ? 0.5 * (lo + hi) : num / den;
    }
    case DefuzzMethod::kBisector: {
      double total = 0.0;
      for (int i = 0; i < res; ++i) total += grade(i);
      if (total <= 0.0) return 0.5 * (lo + hi);
      double acc = 0.0;
      for (int i = 0; i < res; ++i) {
        acc += grade(i);
        if (acc >= 0.5 * total) return lo + i * dy;
      }
      return hi;
    }
    default: {
      double max_mu = 0.0;
      for (int i = 0; i < res; ++i) max_mu = std::max(max_mu, grade(i));
      if (max_mu <= 0.0) return 0.5 * (lo + hi);
      double first = hi, last = lo, sum = 0.0;
      int count = 0;
      for (int i = 0; i < res; ++i) {
        if (grade(i) >= max_mu - 1e-9) {
          const double y = lo + i * dy;
          first = std::min(first, y);
          last = std::max(last, y);
          sum += y;
          ++count;
        }
      }
      if (method == DefuzzMethod::kSmallestOfMaximum) return first;
      if (method == DefuzzMethod::kLargestOfMaximum) return last;
      return sum / count;
    }
  }
}

class DefuzzGoldenParity : public ::testing::Test {
 protected:
  // Five terms with shoulders at the edges — the shape of the paper's A/R
  // output (Fig. 6).
  static LinguisticVariable make_ar() {
    return VariableBuilder("ar", -1.0, 1.0)
        .left_shoulder("R", -0.6, 0.3)
        .triangular("WR", -0.3, 0.3, 0.3)
        .triangular("NRNA", 0.0, 0.3, 0.3)
        .triangular("WA", 0.3, 0.3, 0.3)
        .right_shoulder("A", 0.6, 0.3)
        .build();
  }
  LinguisticVariable output = make_ar();

  static constexpr DefuzzMethod kMethods[] = {
      DefuzzMethod::kCentroid, DefuzzMethod::kBisector,
      DefuzzMethod::kMeanOfMaximum, DefuzzMethod::kSmallestOfMaximum,
      DefuzzMethod::kLargestOfMaximum};
  static constexpr int kResolutions[] = {8, 101, 1001};

  std::vector<std::vector<double>> activation_sets = {
      {1.0, 0.0, 0.0, 0.0, 0.0},    {0.0, 0.0, 1.0, 0.0, 0.0},
      {0.3, 0.7, 0.0, 0.2, 0.0},    {0.05, 0.0, 0.0, 0.0, 0.9},
      {0.5, 0.5, 0.5, 0.5, 0.5},    {0.0, 1e-9, 0.0, 0.0, 0.0},
      {0.25, 0.75, 0.6, 0.1, 0.95},
  };
};

TEST_F(DefuzzGoldenParity, GridPathMatchesNaiveReference) {
  std::vector<double> mu_scratch;
  for (auto method : kMethods) {
    for (int res : kResolutions) {
      Defuzzifier fast(method, res);
      // Pin the grid path: this suite checks the sampled tables, not the
      // closed-form centroid (covered by DefuzzAnalyticCentroid below).
      fast.set_analytic_centroid(false);
      fast.prime(output);
      ASSERT_TRUE(fast.primed_for(output));
      for (const auto& acts : activation_sets) {
        const double expect = reference_defuzzify(method, res, output, acts);
        const double got = fast.defuzzify(acts, output, mu_scratch);
        EXPECT_NEAR(got, expect, 1e-12)
            << to_string(method) << " res=" << res;
      }
    }
  }
}

TEST_F(DefuzzGoldenParity, UnprimedOrForeignVariableIsAContractViolation) {
  // A defuzzifier serves the one variable it was primed for.  Unprimed, or
  // handed an equal-looking but distinct variable, defuzzify() throws —
  // for every method, and before the empty-set shortcut.
  const LinguisticVariable twin = make_ar();
  std::vector<double> mu;
  const std::vector<double> acts = {0.3, 0.7, 0.0, 0.2, 0.0};
  const std::vector<double> none(5, 0.0);
  for (auto method :
       {DefuzzMethod::kCentroid, DefuzzMethod::kBisector,
        DefuzzMethod::kMeanOfMaximum, DefuzzMethod::kSmallestOfMaximum,
        DefuzzMethod::kLargestOfMaximum, DefuzzMethod::kWeightedAverage}) {
    SCOPED_TRACE(to_string(method));
    Defuzzifier d(method, 101);
    EXPECT_FALSE(d.primed_for(output));
    EXPECT_THROW(d.defuzzify(acts, output, mu), ContractViolation);
    EXPECT_THROW(d.defuzzify(none, output, mu), ContractViolation);
    d.prime(output);
    EXPECT_TRUE(d.primed_for(output));
    EXPECT_FALSE(d.primed_for(twin));
    EXPECT_NO_THROW(d.defuzzify(acts, output, mu));
    EXPECT_THROW(d.defuzzify(acts, twin, mu), ContractViolation);
  }
}

// --- analytic centroid ------------------------------------------------------
//
// The closed-form alpha-cut centroid is checked against an *algorithmically
// independent* exact reference: recursive adaptive subdivision that probes
// each interval for linearity (midpoint + golden-ratio point against the
// chord) and integrates area/moment with the trapezoid rule only where the
// aggregated membership is verified linear.  Clipped piecewise-linear terms
// make the membership piecewise linear, so the reference is exact up to
// rounding and the two must agree to 1e-9 — far below anything a fixed grid
// can certify (an 8192-point trapezoid grid has O(h^2) ~ 1e-7 kink error;
// the grid comparison below therefore uses a justified looser tolerance).

struct ExactIntegral {
  double area = 0.0;
  double moment = 0.0;
};

template <typename F>
void adaptive_integrate(const F& f, double x0, double x1, double f0, double f1,
                        int depth, ExactIntegral& acc) {
  const double kGolden = 0.3819660112501051;
  const double xm = 0.5 * (x0 + x1);
  const double xg = x0 + (x1 - x0) * kGolden;
  const double fm = f(xm);
  const double fg = f(xg);
  const double lm = f0 + (f1 - f0) * 0.5;
  const double lg = f0 + (f1 - f0) * kGolden;
  if (depth <= 0 ||
      (std::abs(fm - lm) <= 1e-13 && std::abs(fg - lg) <= 1e-13)) {
    const double h = x1 - x0;
    acc.area += 0.5 * h * (f0 + f1);
    // Exact first moment of the linear interpolant on [x0, x1].
    acc.moment += h * (f0 * (2.0 * x0 + x1) + f1 * (x0 + 2.0 * x1)) / 6.0;
    return;
  }
  adaptive_integrate(f, x0, xm, f0, fm, depth - 1, acc);
  adaptive_integrate(f, xm, x1, fm, f1, depth - 1, acc);
}

/// Exact area/moment of the aggregated membership.  The integration is
/// seeded with every *known* kink candidate — term breakpoints and the
/// alpha-cut corners — because probing alone can
/// miss a feature that lies strictly between samples (e.g. a narrow term
/// whose support sits inside an interval that reads 0 at every probe).
/// Between seeded points each term's clipped membership is affine, so
/// the aggregate is a max of affines (convex): any remaining kink pulls the
/// midpoint strictly below the chord and the adaptive recursion is
/// guaranteed to find it.
ExactIntegral exact_integral(const LinguisticVariable& output,
                             std::span<const double> acts) {
  const double lo = output.universe_lo();
  const double hi = output.universe_hi();
  auto mu = [&](double y) { return reference_grade(output, acts, y); };
  std::vector<double> cuts = {lo, hi};
  for (std::size_t k = 0; k < output.term_count(); ++k) {
    const MembershipFunction& mf = output.term(k).mf;
    for (double y : {mf.a(), mf.b(), mf.c(), mf.d()})
      if (y > lo && y < hi) cuts.push_back(y);
    if (acts[k] > 0.0 && acts[k] < 1.0 && !mf.is_singleton()) {
      for (double y : {mf.alpha_cut_lo(acts[k]), mf.alpha_cut_hi(acts[k])})
        if (std::isfinite(y) && y > lo && y < hi) cuts.push_back(y);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  ExactIntegral acc;
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    if (!(cuts[i] > cuts[i - 1])) continue;
    adaptive_integrate(mu, cuts[i - 1], cuts[i], mu(cuts[i - 1]), mu(cuts[i]),
                       50, acc);
  }
  return acc;
}

/// Random ordered adjacent-overlap partition of [-1, 1]: term k's support is
/// [p[k-1], p[k+1]] (adjacent pairs overlap, support ends may touch at the
/// shared anchor), plateaus random inside, triangles half the time, shoulder
/// ends half the time — the layout family the analytic path claims.
LinguisticVariable random_partition_variable(std::mt19937_64& rng,
                                             bool shoulder_ends) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const int terms = 3 + static_cast<int>(rng() % 6);  // 3..8
  const double lo = -1.0, hi = 1.0;
  // Strictly increasing anchors p[0..terms] with a minimum gap so edge
  // slopes stay bounded.
  std::vector<double> p(terms + 1);
  for (;;) {
    p.front() = lo;
    p.back() = hi;
    for (int i = 1; i < terms; ++i) p[i] = lo + (hi - lo) * uni(rng);
    std::sort(p.begin(), p.end());
    bool ok = true;
    for (int i = 0; i < terms; ++i) ok = ok && p[i + 1] - p[i] >= 0.04;
    if (ok) break;
  }
  VariableBuilder vb("rand", lo, hi);
  for (int k = 0; k < terms; ++k) {
    const double a = p[k == 0 ? 0 : k - 1];
    const double d = p[std::min(k + 1, terms)];
    // Plateau strictly inside the support, edges at least 0.01 wide.
    double b = a + (d - a) * (0.1 + 0.35 * uni(rng));
    double c = b + (d - b - 0.01) * uni(rng);
    if (rng() % 2 == 0) c = b;  // triangle
    if (k == 0 && shoulder_ends) {
      vb.term("t0", MembershipFunction::from_breakpoints(
                        -kInf, -kInf, c, d));
    } else if (k == terms - 1 && shoulder_ends) {
      vb.term("t" + std::to_string(k),
              MembershipFunction::from_breakpoints(a, b, kInf, kInf));
    } else {
      vb.term("t" + std::to_string(k),
              MembershipFunction::from_breakpoints(a, b, c, d));
    }
  }
  return vb.build();
}

std::vector<double> random_activations(std::mt19937_64& rng,
                                       std::size_t terms) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> acts(terms, 0.0);
  for (auto& a : acts) {
    const auto pick = rng() % 5;
    if (pick == 0) continue;              // inactive
    if (pick == 1) a = 1.0;               // full clip
    else if (pick == 2) a = 1.3 * uni(rng);  // raw-API abuse: alpha > 1
    else a = uni(rng);
  }
  return acts;
}

TEST(DefuzzAnalyticCentroid, MatchesAdaptiveExactReference) {
  std::mt19937_64 rng(20260808);
  std::vector<double> mu_scratch;
  int checked = 0;
  for (int v = 0; v < 120; ++v) {
    const LinguisticVariable output =
        random_partition_variable(rng, /*shoulder_ends=*/v % 2 == 0);
    Defuzzifier d(DefuzzMethod::kCentroid, 64);
    d.prime(output);
    ASSERT_TRUE(d.analytic_applicable(output));
    for (int t = 0; t < 8; ++t) {
      const auto acts = random_activations(rng, output.term_count());
      // Skip near-empty sets: centroid = moment/area is ill-conditioned
      // when the area is a sliver (both sides would need looser bounds).
      const ExactIntegral ref = exact_integral(output, acts);
      if (ref.area < 1e-6) continue;
      ++checked;
      EXPECT_NEAR(d.defuzzify(acts, output, mu_scratch),
                  ref.moment / ref.area, 1e-9)
          << "variable " << v << " trial " << t;
    }
  }
  EXPECT_GT(checked, 500);  // the skip guard must not hollow out the test
}

/// Seeded activation sets covering the analytic path's cases: each term
/// alone (alpha < 1, == 1, > 1), each adjacent pair, each non-adjacent
/// pair, and random mixes.
std::vector<std::vector<double>> structured_activations(std::size_t terms,
                                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.05, 1.0);
  std::vector<std::vector<double>> sets;
  for (std::size_t k = 0; k < terms; ++k) {
    for (double alpha : {uni(rng), 1.0, 1.4}) {
      sets.emplace_back(terms, 0.0);
      sets.back()[k] = alpha;
    }
    for (std::size_t j = k + 1; j < terms; ++j) {
      sets.emplace_back(terms, 0.0);
      sets.back()[k] = uni(rng);
      sets.back()[j] = j == k + 1 && k % 2 == 0 ? 1.0 : uni(rng);
    }
  }
  for (int t = 0; t < 64; ++t) sets.push_back(random_activations(rng, terms));
  return sets;
}

/// Analytic centroid of `output` against the adaptive exact reference for
/// every structured activation set; returns how many sets were checked.
int expect_exact_centroids(const Defuzzifier& d,
                           const LinguisticVariable& output, double tol) {
  EXPECT_TRUE(d.analytic_applicable(output)) << output.name();
  std::vector<double> mu_scratch;
  int checked = 0;
  for (const auto& acts : structured_activations(output.term_count(), 23)) {
    const ExactIntegral ref = exact_integral(output, acts);
    if (ref.area <= 0.0) continue;
    ++checked;
    EXPECT_NEAR(d.defuzzify(acts, output, mu_scratch), ref.moment / ref.area,
                tol)
        << output.name() << " set " << checked;
  }
  return checked;
}

TEST(DefuzzAnalyticCentroid, PaperOutputsMatchAdaptiveExactReference) {
  // FLC1's 9-term Cv and FLC2's 5-term A/R through the controllers' own
  // primed defuzzifiers.
  const auto flc1 = cac::make_flc1();
  const auto flc2 = cac::make_flc2();
  ASSERT_EQ(flc1->output().term_count(), 9u);
  ASSERT_EQ(flc2->output().term_count(), 5u);
  EXPECT_GT(expect_exact_centroids(flc1->defuzzifier(), flc1->output(), 1e-12),
            100);
  EXPECT_GT(expect_exact_centroids(flc2->defuzzifier(), flc2->output(), 1e-12),
            40);

  // Touching supports (the shoulder's d equals the next term's a) and
  // shoulders cut by the universe on their sloped edges.
  const LinguisticVariable edges =
      VariableBuilder("edges", -1.0, 1.0)
          .term("lo", MembershipFunction::from_breakpoints(-kInf, -kInf, -1.2,
                                                           -0.6))
          .term("touch", MembershipFunction::from_breakpoints(-0.6, -0.3,
                                                              -0.3, 0.0))
          .term("mid", MembershipFunction::from_breakpoints(-0.2, 0.1, 0.3,
                                                            0.6))
          .term("hi", MembershipFunction::from_breakpoints(0.4, 1.3, kInf,
                                                           kInf))
          .build();
  Defuzzifier d(DefuzzMethod::kCentroid, 64);
  d.prime(edges);
  EXPECT_GT(expect_exact_centroids(d, edges, 1e-12), 40);
}

TEST(DefuzzAnalyticCentroid, HighResGridAgreesWithinItsErrorBound) {
  // The 8192-point trapezoid grid is exact on cells where the membership is
  // linear; each kink contributes O(h^2 * slope) area error.  With edge
  // widths >= 0.01 (slope <= 100), h ~ 2.4e-4 and <= ~34 kinks that bounds
  // the centroid shift well under 1e-4 for non-sliver sets — the analytic
  // path must sit inside it.  (1e-9 agreement against a fixed grid is not
  // achievable; the exact-reference test above carries that bound.)
  std::mt19937_64 rng(99);
  std::vector<double> mu_scratch;
  for (int v = 0; v < 25; ++v) {
    const LinguisticVariable output =
        random_partition_variable(rng, v % 2 == 0);
    Defuzzifier analytic(DefuzzMethod::kCentroid, 64);
    analytic.prime(output);
    Defuzzifier grid(DefuzzMethod::kCentroid, 8192);
    grid.set_analytic_centroid(false);
    grid.prime(output);
    for (int t = 0; t < 6; ++t) {
      const auto acts = random_activations(rng, output.term_count());
      const double g = grid.defuzzify(acts, output, mu_scratch);
      const double a = analytic.defuzzify(acts, output, mu_scratch);
      if (std::none_of(acts.begin(), acts.end(),
                       [](double x) { return x > 0.05; }))
        continue;
      EXPECT_NEAR(a, g, 1e-4) << "variable " << v << " trial " << t;
    }
  }
}

TEST(DefuzzAnalyticCentroid, NonCentroidMethodsFallBackToGridBitwise) {
  // Only the centroid has a closed form: every other method must take the
  // grid path even with analytic centroids enabled, bitwise-identical to a
  // twin with the analytic path disabled.
  std::mt19937_64 rng(7);
  const LinguisticVariable output = random_partition_variable(rng, true);
  std::vector<double> mu1, mu2;
  for (auto method :
       {DefuzzMethod::kCentroid, DefuzzMethod::kBisector,
        DefuzzMethod::kMeanOfMaximum, DefuzzMethod::kWeightedAverage}) {
    Defuzzifier on(method, 101);
    Defuzzifier off(method, 101);
    off.set_analytic_centroid(false);
    on.prime(output);
    off.prime(output);
    const bool centroid = method == DefuzzMethod::kCentroid;
    EXPECT_EQ(on.analytic_applicable(output), centroid) << to_string(method);
    EXPECT_FALSE(off.analytic_applicable(output)) << to_string(method);
    if (centroid) continue;
    for (int t = 0; t < 3; ++t) {
      const auto acts = random_activations(rng, output.term_count());
      EXPECT_EQ(on.defuzzify(acts, output, mu1),
                off.defuzzify(acts, output, mu2))
          << to_string(method);
    }
  }
}

TEST(DefuzzAnalyticCentroid, NonPartitionLayoutFallsBackToGridBitwise) {
  // A wide term overlapping a non-adjacent one breaks the adjacent-overlap
  // precondition; prime() must detect it and the dispatch use the grid,
  // bitwise-identical to an analytic-off twin.
  const LinguisticVariable output =
      VariableBuilder("bad", -1.0, 1.0)
          .term("wide", MembershipFunction::from_breakpoints(-1.0, -0.2, 0.2,
                                                             1.0))
          .term("mid", MembershipFunction::from_breakpoints(-0.5, 0.0, 0.0,
                                                            0.5))
          .term("hi", MembershipFunction::from_breakpoints(-0.4, 0.8, 0.9,
                                                           1.0))
          .build();
  Defuzzifier on(DefuzzMethod::kCentroid, 101);
  Defuzzifier off(DefuzzMethod::kCentroid, 101);
  off.set_analytic_centroid(false);
  on.prime(output);
  off.prime(output);
  EXPECT_FALSE(on.analytic_applicable(output));
  std::vector<double> mu1, mu2;
  const std::vector<double> acts = {0.4, 0.9, 0.6};
  EXPECT_EQ(on.defuzzify(acts, output, mu1), off.defuzzify(acts, output, mu2));
}

TEST(DefuzzAnalyticCentroid, ApplicableToThePaperVariables) {
  // Both paper output variables (Cv's 9-term uniform partition, A/R's
  // 5-term shouldered partition) must ride the analytic path.
  const LinguisticVariable cv =
      VariableBuilder("cv", 0.0, 1.0).uniform_partition("Cv", 9).build();
  const LinguisticVariable ar = VariableBuilder("ar", -1.0, 1.0)
                                    .left_shoulder("R", -0.6, 0.3)
                                    .triangular("WR", -0.3, 0.3, 0.3)
                                    .triangular("NRNA", 0.0, 0.3, 0.3)
                                    .triangular("WA", 0.3, 0.3, 0.3)
                                    .right_shoulder("A", 0.6, 0.3)
                                    .build();
  Defuzzifier for_cv(DefuzzMethod::kCentroid, 256);
  Defuzzifier for_ar(DefuzzMethod::kCentroid, 256);
  for_cv.prime(cv);
  for_ar.prime(ar);
  EXPECT_TRUE(for_cv.analytic_applicable(cv));
  EXPECT_TRUE(for_ar.analytic_applicable(ar));
}

TEST(DefuzzMethodNames, RoundTrip) {
  // The names the defuzzification ablation bench prints.
  EXPECT_STREQ(to_string(DefuzzMethod::kCentroid), "centroid");
  EXPECT_STREQ(to_string(DefuzzMethod::kBisector), "bisector");
  EXPECT_STREQ(to_string(DefuzzMethod::kMeanOfMaximum), "mom");
  EXPECT_STREQ(to_string(DefuzzMethod::kSmallestOfMaximum), "som");
  EXPECT_STREQ(to_string(DefuzzMethod::kLargestOfMaximum), "lom");
  EXPECT_STREQ(to_string(DefuzzMethod::kWeightedAverage), "wavg");
}

}  // namespace
}  // namespace facsp::fuzzy
