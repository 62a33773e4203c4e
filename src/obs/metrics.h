// Process-wide metrics registry: named counters, gauges and log-linear
// histograms with lock-free recording on hot paths.
//
// Contract (the reason this layer may sit inside the zero-allocation
// serving/simulation loops):
//
//   * Registration (Registry::counter/gauge/histogram) takes a mutex and may
//     allocate — do it once, at setup, and keep the returned reference.
//     Entries are never removed, so references stay valid for the process
//     lifetime; reset_values() zeroes values without invalidating anything.
//   * Recording (Counter::add, Gauge::set, Histogram::record) is a handful
//     of relaxed atomics: lock-free, allocation-free, wait-free apart from
//     the histogram max update.  The counting-operator-new audits in
//     bench_server / bench_multicell run with metrics enabled to enforce the
//     zero-steady-state-allocation claim.
//   * Observability never feeds back into simulation state or RNG streams:
//     telemetry CSVs and ResultTables are byte-identical with metrics on or
//     off (ctest + CI enforced, see docs/observability.md).
//
// The global `metrics_enabled()` switch gates every instrumentation site in
// the library: disabled (the default), an instrumented hot path pays one
// relaxed atomic load and a branch.
//
// Snapshots (write_json / write_csv) are byte-stable: entries sort by name,
// doubles go through core::format_double, so two snapshots of bit-identical
// values serialise to identical bytes regardless of registration order.
// Snapshots taken while other threads record see each atomic individually
// (values may be mid-update relative to each other); take them at barriers
// or after joins when exactness matters.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.h"

namespace facsp::obs {

/// Global switch for metric recording at the library's instrumentation
/// sites.  Off by default; the disabled path is one relaxed load + branch.
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (sessions resident, queue depth, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Concurrent log-linear histogram of non-negative integer samples
/// (durations in ns, batch sizes, ...) on LocalHistogram's bucket geometry
/// (obs/histogram.h), so the <=1/16 relative quantisation error bound and
/// the exact-below-32 property hold here too.  Buckets are atomics, making
/// record() safe from any number of threads; percentiles are read from a
/// plain snapshot().
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = LocalHistogram::kBucketCount;

  void record(std::uint64_t v) noexcept {
    buckets_[LocalHistogram::bucket_index(v)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Largest recorded sample, exact (not quantised).
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// LocalHistogram::percentile_ns of a snapshot(), except that it returns
  /// 0 when empty or q is outside [0, 1] (a snapshot of an untouched
  /// histogram must not throw).
  std::uint64_t percentile(double q) const noexcept;

  /// Plain copy of the current values.  Under concurrent recording each
  /// bucket is read individually; the copy's count is the sum of the
  /// copied buckets, so its percentiles are always well defined.
  LocalHistogram snapshot() const noexcept;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// The process-wide name -> metric map.  One instance per process
/// (Registry::instance()); separate instances exist only in tests.
class Registry {
 public:
  static Registry& instance();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name.  Throws facsp::ConfigError when `name` is
  /// empty or already registered as a different kind.  The returned
  /// reference is valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Number of registered metrics (all kinds).
  std::size_t size() const;

  /// Zero every value; names stay registered and references stay valid.
  void reset_values();

  /// Byte-stable snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, p50, p95, p99, p999, max}}},
  /// entries sorted by name, doubles via core::format_double.
  void write_json(std::ostream& os) const;
  void write_json(const std::string& path) const;

  /// Byte-stable flat CSV: kind,name,field,value — one row per scalar
  /// (counters/gauges: field "value"; histograms: one row per statistic).
  void write_csv(std::ostream& os) const;
  void write_csv(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  /// Ordered map: iteration is name-sorted, which is what makes snapshots
  /// independent of registration order.  Values are unique_ptrs so the
  /// metric objects never move.
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Write Registry::instance() to `path`: CSV when the path ends in ".csv",
/// JSON otherwise.  The `--metrics <file>` CLI flags funnel through this.
void write_snapshot(const std::string& path);

/// Label-suffixed metric name: `labeled("engine.shard_drain_ns", "shard", 3)`
/// -> "engine.shard_drain_ns{shard=3}".  The registry treats the result as
/// an ordinary name, so labelled families ride the existing name-sorted,
/// byte-stable snapshot machinery unchanged.  Building the string
/// allocates: resolve labelled metrics once at setup (like any other
/// registration) and keep the references.
std::string labeled(std::string_view name, std::string_view key,
                    std::int64_t value);

}  // namespace facsp::obs
