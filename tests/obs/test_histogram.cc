#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace facsp::obs {
namespace {

TEST(LocalHistogram, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 2 * LocalHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LocalHistogram::bucket_index(v), v);
    EXPECT_EQ(LocalHistogram::bucket_upper_bound(v), v);
  }
}

TEST(LocalHistogram, BucketGeometryBoundsRelativeError) {
  // The bucket upper bound over-reports by at most 1/kSubBuckets.
  for (std::uint64_t v : {100ull, 1000ull, 54321ull, 1048576ull,
                          987654321ull, 1099511627776ull}) {
    const std::uint64_t ub = LocalHistogram::bucket_upper_bound(v);
    EXPECT_GE(ub, v);
    EXPECT_LE(static_cast<double>(ub - v),
              static_cast<double>(v) / LocalHistogram::kSubBuckets)
        << "value " << v;
    // Everything in the bucket maps to the same index; ub+1 starts the next.
    EXPECT_EQ(LocalHistogram::bucket_index(v),
              LocalHistogram::bucket_index(ub));
    EXPECT_NE(LocalHistogram::bucket_index(v),
              LocalHistogram::bucket_index(ub + 1));
  }
}

TEST(LocalHistogram, BucketIndexIsMonotone) {
  std::uint64_t prev = LocalHistogram::bucket_index(0);
  for (std::uint64_t v = 1; v < 100000; v += 7) {
    const std::uint64_t idx = LocalHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
  EXPECT_LT(LocalHistogram::bucket_index(~0ull),
            LocalHistogram::kBucketCount);
}

TEST(LocalHistogram, PercentilesMatchSortedReference) {
  // Contract: percentile_ns(q) equals the bucket upper bound of the
  // ceil(q*n)-th smallest recorded sample — an exact statement, not an
  // approximation, so it must hold for any sample set.
  std::mt19937_64 rng(42);
  // The registry's concurrent Histogram reads its percentiles through the
  // same scan, so it must meet the same contract.
  std::vector<std::uint64_t> samples;
  LocalHistogram h;
  Histogram concurrent;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform spread over ~6 decades, the shape of real latencies.
    const double mag = std::uniform_real_distribution<>(1.0, 7.0)(rng);
    const auto v = static_cast<std::uint64_t>(std::pow(10.0, mag));
    samples.push_back(v);
    h.record(v);
    concurrent.record(v);
  }
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(h.count(), samples.size());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    EXPECT_EQ(h.percentile_ns(q),
              LocalHistogram::bucket_upper_bound(samples[rank - 1]))
        << "q=" << q;
    EXPECT_EQ(concurrent.percentile(q), h.percentile_ns(q)) << "q=" << q;
  }
  EXPECT_EQ(h.max_ns(), samples.back());
  EXPECT_EQ(concurrent.max(), samples.back());
  EXPECT_EQ(concurrent.sum(), h.sum_ns());
}

TEST(LocalHistogram, RecordNMatchesRepeatedRecord) {
  LocalHistogram a, b;
  a.record_n(777, 5);
  for (int i = 0; i < 5; ++i) b.record(777);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.percentile_ns(0.5), b.percentile_ns(0.5));
}

TEST(LocalHistogram, MergeEqualsCombinedRecording) {
  LocalHistogram left, right, both;
  for (std::uint64_t v = 1; v < 2000; v += 3) {
    (v % 2 ? left : right).record(v);
    both.record(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), both.count());
  EXPECT_EQ(left.max_ns(), both.max_ns());
  for (const double q : {0.25, 0.5, 0.75, 0.99})
    EXPECT_EQ(left.percentile_ns(q), both.percentile_ns(q));
}

TEST(LocalHistogram, SaturatesInsteadOfOverflowing) {
  LocalHistogram h;
  h.record(~0ull);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_ns(), ~0ull);
  EXPECT_GT(h.percentile_ns(1.0), 0u);
}

TEST(LocalHistogram, ResetClears) {
  LocalHistogram h;
  h.record(100);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
}

TEST(LocalHistogram, ContractViolations) {
  LocalHistogram h;
  EXPECT_THROW(h.percentile_ns(0.5), ContractViolation);  // empty
  h.record(1);
  EXPECT_THROW(h.percentile_ns(-0.1), ContractViolation);
  EXPECT_THROW(h.percentile_ns(1.1), ContractViolation);
}

}  // namespace
}  // namespace facsp::obs
