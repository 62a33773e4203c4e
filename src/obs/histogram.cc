#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/expects.h"

namespace facsp::obs {

namespace {

/// Values at or above this saturate into the final bucket.
constexpr std::uint64_t kSaturation =
    (LocalHistogram::kSubBuckets * 2) << LocalHistogram::kMaxShift;

}  // namespace

std::size_t LocalHistogram::bucket_index(std::uint64_t ns) noexcept {
  if (ns >= kSaturation) return kBucketCount - 1;
  // Below 2 * kSubBuckets every value has its own exact bucket.
  if (ns < kSubBuckets * 2) return static_cast<std::size_t>(ns);
  // Otherwise: top set bit selects the octave, the kSubBucketBits bits
  // below it select the linear sub-bucket within that octave.
  const int top = std::bit_width(ns) - 1;  // >= kSubBucketBits + 1
  const int shift = top - kSubBucketBits;
  const std::uint64_t sub = ns >> shift;  // in [kSubBuckets, 2*kSubBuckets)
  return static_cast<std::size_t>(shift + 1) * kSubBuckets +
         static_cast<std::size_t>(sub - kSubBuckets);
}

std::uint64_t LocalHistogram::bucket_upper_bound(std::uint64_t ns) noexcept {
  if (ns >= kSaturation) return kSaturation;  // sentinel for the overflow bin
  if (ns < kSubBuckets * 2) return ns;
  const int top = std::bit_width(ns) - 1;
  const int shift = top - kSubBucketBits;
  const std::uint64_t sub = ns >> shift;
  return ((sub + 1) << shift) - 1;
}

void LocalHistogram::record_n(std::uint64_t ns, std::uint64_t n) noexcept {
  counts_[bucket_index(ns)] += n;
  count_ += n;
  sum_ += ns * n;
  max_ = std::max(max_, ns);
}

std::uint64_t LocalHistogram::percentile_ns(double q) const {
  FACSP_EXPECTS(count_ > 0);
  FACSP_EXPECTS(q >= 0.0 && q <= 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      if (i < kSubBuckets * 2) return i;
      const std::size_t shift = i / kSubBuckets - 1;
      const std::uint64_t sub = i % kSubBuckets + kSubBuckets;
      return ((sub + 1) << shift) - 1;
    }
  }
  return max_;  // unreachable: counts_ sums to count_ >= rank
}

void LocalHistogram::merge(const LocalHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LocalHistogram::reset() noexcept {
  counts_.fill(0);
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

}  // namespace facsp::obs
