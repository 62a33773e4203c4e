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

  Defuzzifier d{output};

  double defuzz(const std::vector<double>& acts) const {
    return d.defuzzify(acts, output);
  }
};

TEST_F(DefuzzFixture, CentroidOfSingleSymmetricTerm) {
  EXPECT_NEAR(defuzz({1.0, 0.0, 0.0}), -0.5, 1e-12);
  EXPECT_NEAR(defuzz({0.0, 1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(defuzz({0.0, 0.0, 1.0}), 0.5, 1e-12);
}

TEST_F(DefuzzFixture, CentroidOfBalancedMixIsZero) {
  EXPECT_NEAR(defuzz({0.7, 0.0, 0.7}), 0.0, 1e-12);
}

TEST_F(DefuzzFixture, CentroidShiftsTowardStrongerTerm) {
  const double toward_pos = defuzz({0.2, 0.0, 0.8});
  EXPECT_GT(toward_pos, 0.15);
  EXPECT_LT(toward_pos, 0.5);
}

TEST_F(DefuzzFixture, EmptySetGivesUniverseMidpoint) {
  EXPECT_DOUBLE_EQ(defuzz({0.0, 0.0, 0.0}), 0.0);
}

TEST_F(DefuzzFixture, ResultAlwaysInsideUniverse) {
  for (double a = 0.0; a <= 1.0; a += 0.25) {
    for (double b = 0.0; b <= 1.0; b += 0.25) {
      const double y = defuzz({a, 0.1, b});
      EXPECT_GE(y, output.universe_lo());
      EXPECT_LE(y, output.universe_hi());
    }
  }
}

/// Max over terms of each term clipped at its activation: the aggregated
/// membership, read straight from the term membership functions.
double reference_grade(const LinguisticVariable& output,
                       std::span<const double> acts, double y) {
  double acc = 0.0;
  for (std::size_t k = 0; k < acts.size(); ++k) {
    if (acts[k] <= 0.0) continue;
    acc = std::max(acc, std::min(acts[k], output.term(k).mf.grade(y)));
  }
  return acc;
}

/// Five terms with shoulders at the edges — the shape of the paper's A/R
/// output (Fig. 6).
LinguisticVariable make_ar() {
  return VariableBuilder("ar", -1.0, 1.0)
      .left_shoulder("R", -0.6, 0.3)
      .triangular("WR", -0.3, 0.3, 0.3)
      .triangular("NRNA", 0.0, 0.3, 0.3)
      .triangular("WA", 0.3, 0.3, 0.3)
      .right_shoulder("A", 0.6, 0.3)
      .build();
}

TEST(DefuzzBinding, ForeignVariableIsAContractViolation) {
  // A defuzzifier serves the one variable it was built for.  Handed an
  // equal-looking but distinct variable, defuzzify() throws, before the
  // empty-set shortcut too.
  const LinguisticVariable output = make_ar();
  const LinguisticVariable twin = make_ar();
  const Defuzzifier d(output);
  const std::vector<double> acts = {0.3, 0.7, 0.0, 0.2, 0.0};
  const std::vector<double> none(5, 0.0);
  EXPECT_TRUE(d.bound_to(output));
  EXPECT_FALSE(d.bound_to(twin));
  EXPECT_NO_THROW(d.defuzzify(acts, output));
  EXPECT_THROW(d.defuzzify(acts, twin), ContractViolation);
  EXPECT_THROW(d.defuzzify(none, twin), ContractViolation);
}

// --- analytic centroid ------------------------------------------------------
//
// The closed-form alpha-cut centroid is checked against an *algorithmically
// independent* exact reference: recursive adaptive subdivision that probes
// each interval for linearity (midpoint + golden-ratio point against the
// chord) and integrates area/moment with the trapezoid rule only where the
// aggregated membership is verified linear.  Clipped piecewise-linear terms
// make the membership piecewise linear, so the reference is exact up to
// rounding and the two must agree to 1e-9 — far below anything a fixed
// sample grid can certify (an 8192-point trapezoid grid has O(h^2) ~ 1e-7
// kink error).

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
/// ends half the time — the layout family the defuzzifier accepts.
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
  int checked = 0;
  for (int v = 0; v < 120; ++v) {
    const LinguisticVariable output =
        random_partition_variable(rng, /*shoulder_ends=*/v % 2 == 0);
    const Defuzzifier d(output);
    for (int t = 0; t < 8; ++t) {
      const auto acts = random_activations(rng, output.term_count());
      // Skip near-empty sets: centroid = moment/area is ill-conditioned
      // when the area is a sliver (both sides would need looser bounds).
      const ExactIntegral ref = exact_integral(output, acts);
      if (ref.area < 1e-6) continue;
      ++checked;
      EXPECT_NEAR(d.defuzzify(acts, output), ref.moment / ref.area, 1e-9)
          << "variable " << v << " trial " << t;
    }
  }
  EXPECT_GT(checked, 500);  // the skip guard must not hollow out the test
}

/// Seeded activation sets covering the analytic centroid's cases: each term
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
  int checked = 0;
  for (const auto& acts : structured_activations(output.term_count(), 23)) {
    const ExactIntegral ref = exact_integral(output, acts);
    if (ref.area <= 0.0) continue;
    ++checked;
    EXPECT_NEAR(d.defuzzify(acts, output), ref.moment / ref.area, tol)
        << output.name() << " set " << checked;
  }
  return checked;
}

TEST(DefuzzAnalyticCentroid, PaperOutputsMatchAdaptiveExactReference) {
  // FLC1's 9-term Cv and FLC2's 5-term A/R through the controllers' own
  // defuzzifiers.
  const auto flc1 = cac::shared_flc1();
  const auto flc2 = cac::shared_flc2();
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
  EXPECT_GT(expect_exact_centroids(Defuzzifier(edges), edges, 1e-12), 40);
}

TEST(DefuzzAnalyticCentroid, NonPartitionOutputMakesBuildThrowConfigError) {
  // A wide term overlapping a non-adjacent one breaks the adjacent-overlap
  // precondition of the analytic centroid: building a controller on such an
  // output fails with ConfigError, as does the defuzzifier on its own.
  const auto bad = [] {
    return VariableBuilder("bad", -1.0, 1.0)
        .term("wide", MembershipFunction::from_breakpoints(-1.0, -0.2, 0.2,
                                                           1.0))
        .term("mid", MembershipFunction::from_breakpoints(-0.5, 0.0, 0.0,
                                                          0.5))
        .term("hi", MembershipFunction::from_breakpoints(-0.4, 0.8, 0.9, 1.0))
        .build();
  };
  EXPECT_THROW(Defuzzifier{bad()}, ConfigError);
  const auto builder = [](LinguisticVariable output) {
    ControllerBuilder b("partition");
    b.input(VariableBuilder("x", 0.0, 1.0)
                .left_shoulder("lo", 0.0, 1.0)
                .right_shoulder("hi", 1.0, 1.0)
                .build())
        .output(std::move(output))
        .rule_table({"mid", "hi"});
    return b;
  };
  try {
    builder(bad()).build();
    ADD_FAILURE() << "build() accepted a non-partition output";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'bad'"), std::string::npos)
        << e.what();
  }
  // The same controller over a partition output builds.
  EXPECT_NO_THROW(builder(VariableBuilder("ok", -1.0, 1.0)
                              .left_shoulder("lo", -0.5, 0.5)
                              .triangular("mid", 0.0, 0.5, 0.5)
                              .right_shoulder("hi", 0.5, 0.5)
                              .build())
                      .build());
}

TEST(DefuzzAnalyticCentroid, ApplicableToThePaperVariables) {
  // Both paper output variables (Cv's 9-term uniform partition, A/R's
  // 5-term shouldered partition) admit the analytic centroid.
  const LinguisticVariable cv =
      VariableBuilder("cv", 0.0, 1.0).uniform_partition("Cv", 9).build();
  const LinguisticVariable ar = make_ar();
  EXPECT_NO_THROW(Defuzzifier{cv});
  EXPECT_NO_THROW(Defuzzifier{ar});
}

}  // namespace
}  // namespace facsp::fuzzy
