// Fixed-bucket log-linear histogram: the one bucket geometry and percentile
// scan behind every histogram in the library — the decision server's
// per-second p50/p95/p99 telemetry and the metrics registry's concurrent
// obs::Histogram (obs/metrics.h) alike.
//
// The value domain is non-negative integers, nanoseconds for latencies.
// Buckets follow the HDR-histogram layout: values below 2 * kSubBuckets
// land in exact unit buckets; above that, each power-of-two octave is split
// into kSubBuckets linear sub-buckets, bounding the relative quantisation
// error of any reported percentile by 1/kSubBuckets (6.25%).  Storage is one
// fixed std::array of plain counters — record() never allocates and uses no
// atomics, so the histogram can live inside the zero-allocation steady-state
// serving loop.  Single-threaded: one owner records, merges and reads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace facsp::obs {

class LocalHistogram {
 public:
  /// Linear sub-buckets per power-of-two octave (16 -> <=6.25% error).
  static constexpr int kSubBucketBits = 4;
  static constexpr std::uint64_t kSubBuckets = 1u << kSubBucketBits;
  /// Largest distinguishable value: ~2^41 ns (~37 simulated minutes); larger
  /// samples saturate into the top bucket.
  static constexpr int kMaxShift = 37;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxShift + 2) * kSubBuckets;

  /// Count one sample (saturating into the top bucket).
  void record(std::uint64_t ns) noexcept { record_n(ns, 1); }

  /// Count `n` identical samples (a batch measured once, attributed to each
  /// of its items).
  void record_n(std::uint64_t ns, std::uint64_t n) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  /// Largest recorded sample, exact (not quantised).
  std::uint64_t max_ns() const noexcept { return max_; }
  /// Sum of all recorded samples, exact (accumulated before quantisation).
  std::uint64_t sum_ns() const noexcept { return sum_; }
  /// Exact arithmetic mean (sum/count); 0 when empty.
  double mean_ns() const noexcept {
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Upper bound of the bucket holding the ceil(q * count)-th smallest
  /// sample (q in [0, 1]; q = 0 reads the smallest).  An upper bound on the
  /// exact percentile, within 1/kSubBuckets relative error.  Throws
  /// facsp::ContractViolation when empty or q is outside [0, 1].
  std::uint64_t percentile_ns(double q) const;

  /// Merge another histogram's counts into this one.
  void merge(const LocalHistogram& other) noexcept;

  void reset() noexcept;

  // --- bucket geometry -----------------------------------------------------
  static std::size_t bucket_index(std::uint64_t ns) noexcept;
  /// Largest value mapping to the same bucket as `ns`.
  static std::uint64_t bucket_upper_bound(std::uint64_t ns) noexcept;

 private:
  friend class Histogram;  // builds snapshots from its atomic buckets

  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace facsp::obs
