// Ablation A2: sensitivity of the headline result to the defuzzification
// method.  Runs the Fig. 10 scenario with FACS-P under centroid, bisector,
// mean-of-maximum and weighted-average defuzzifiers.
#include "bench_common.h"

#include "fuzzy/defuzzifier.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Ablation: defuzzification method (FACS-P) ===\n";
  const auto scenario = core::paper_scenario();

  const fuzzy::DefuzzMethod methods[] = {
      fuzzy::DefuzzMethod::kCentroid,
      fuzzy::DefuzzMethod::kBisector,
      fuzzy::DefuzzMethod::kMeanOfMaximum,
      fuzzy::DefuzzMethod::kWeightedAverage,
  };

  sim::Figure fig("A2 — acceptance vs N per defuzzification method", "N",
                  "percentage of accepted calls");
  std::vector<sim::Series> acc;
  for (auto m : methods) {
    cac::FacsPConfig cfg;
    cfg.defuzz_method = m;
    const std::string label = fuzzy::to_string(m);
    const auto s = core::metric_series(
        run_sweep(scenario, {label, core::make_facs_p_factory(cfg)}),
        &core::ResultRow::acceptance_percent, label);
    auto& dst = fig.add_series(label);
    for (std::size_t i = 0; i < s.size(); ++i)
      dst.add(s.x(i), s.y(i), s.ci(i).value_or(0.0));
    acc.push_back(s);
    std::cerr << "  [" << label << "] done\n";
  }

  std::vector<core::ShapeCheck> checks;
  {
    // Point-wise gaps between centroid and bisector can spike: tiny score
    // differences flip borderline admissions whose held bandwidth then
    // feeds back into later decisions.  The curve-wide mean is the stable
    // comparison.
    core::ShapeCheck c;
    c.description =
        "centroid and bisector agree on average across the sweep";
    double gap = 0.0;
    for (std::size_t i = 0; i < acc[0].size(); ++i)
      gap += std::abs(acc[0].y(i) - acc[1].y_at(acc[0].x(i)));
    gap /= static_cast<double>(acc[0].size());
    c.passed = gap < 10.0;
    c.details = "mean |centroid - bisector| = " + std::to_string(gap) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "every method keeps the declining-acceptance shape";
    c.passed = true;
    for (const auto& s : acc)
      c.passed = c.passed && core::is_non_increasing(s, 8.0);
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description =
        "mean-of-maximum is the outlier (hard switching at rule borders)";
    double max_gap = 0.0;
    for (double probe : {30.0, 60.0, 90.0})
      max_gap = std::max(max_gap,
                         std::abs(acc[2].y_at(probe) - acc[0].y_at(probe)));
    c.passed = true;  // informational
    c.details = "max |MOM - centroid| = " + std::to_string(max_gap) + "%";
    checks.push_back(c);
  }

  return finish(fig, "ablation_defuzz.csv", checks);
}
