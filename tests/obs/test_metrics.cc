#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace facsp::obs {
namespace {

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("test.a");
  Counter& b = reg.counter("test.a");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);

  reg.gauge("test.g").set(-7);
  reg.histogram("test.h").record(42);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(ObsRegistry, KindMismatchAndEmptyNameThrow) {
  Registry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), ConfigError);
  EXPECT_THROW(reg.histogram("metric"), ConfigError);
  EXPECT_THROW(reg.counter(""), ConfigError);
}

TEST(ObsRegistry, ResetValuesKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(9);
  h.record(100);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(&c, &reg.counter("c"));
}

TEST(ObsRegistry, SnapshotsAreIndependentOfRegistrationOrder) {
  // Same metrics, same values, opposite registration order -> identical
  // bytes.  This is the determinism claim the CLI --metrics flag relies on.
  Registry forward, backward;
  const auto fill = [](Registry& reg, bool reversed) {
    const std::vector<std::string> counters = {"a.count", "z.count"};
    const std::vector<std::string> hists = {"a.ns", "z.ns"};
    for (std::size_t i = 0; i < counters.size(); ++i) {
      const std::size_t k = reversed ? counters.size() - 1 - i : i;
      reg.counter(counters[k]).add(10 + k);
      reg.histogram(hists[k]).record(100 * (k + 1));
    }
    reg.gauge("mid.gauge").set(-4);
  };
  fill(forward, false);
  fill(backward, true);

  std::ostringstream js_f, js_b, csv_f, csv_b;
  forward.write_json(js_f);
  backward.write_json(js_b);
  forward.write_csv(csv_f);
  backward.write_csv(csv_b);
  EXPECT_EQ(js_f.str(), js_b.str());
  EXPECT_EQ(csv_f.str(), csv_b.str());
  EXPECT_EQ(csv_f.str().find("kind,name,field,value\n"), 0u);
  EXPECT_NE(js_f.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(js_f.str().find("\"mid.gauge\": -4"), std::string::npos);
}

TEST(ObsHistogram, CountSumMeanMaxAreExact) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty must not throw
  EXPECT_EQ(h.mean(), 0.0);
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(ObsMetrics, GlobalSwitchDefaultsOff) {
  EXPECT_FALSE(metrics_enabled());
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
}

TEST(ObsMetrics, LabeledBuildsSuffixedNames) {
  EXPECT_EQ(labeled("engine.shard_drain_ns", "shard", 3),
            "engine.shard_drain_ns{shard=3}");
  EXPECT_EQ(labeled("x", "k", 0), "x{k=0}");
  EXPECT_EQ(labeled("a.b", "cell", -7), "a.b{cell=-7}");
  // Labelled families are ordinary registry names: same-family entries sort
  // together (and deterministically) in snapshots because the prefix is
  // shared and the suffix orders lexicographically per value.
  Registry reg;
  reg.counter(labeled("f.ns", "shard", 1));
  reg.counter(labeled("f.ns", "shard", 0));
  std::ostringstream a;
  reg.write_csv(a);
  Registry reordered;
  reordered.counter(labeled("f.ns", "shard", 0));
  reordered.counter(labeled("f.ns", "shard", 1));
  std::ostringstream b;
  reordered.write_csv(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("f.ns{shard=0}"), std::string::npos);
}

}  // namespace
}  // namespace facsp::obs
