// Shared plumbing of the benchmark driver: wall and CPU clocks, CPU pinning,
// a counting operator new, sample statistics, the windowed untraced
// measurement, the in-memory span log that the traced runs write out as
// Chrome trace-event JSON, and the result record every workload fills in.
//
// Everything here is measured from outside the library: spans wrap calls
// into facsp's public functions, counters come from the library's own
// public accessors or from /proc.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- clocks -----------------------------------------------------------------

/// Monotonic wall clock, nanoseconds since an arbitrary fixed origin.
std::int64_t now_ns() noexcept;
/// CPU time consumed by the calling thread, nanoseconds.
std::int64_t thread_cpu_ns() noexcept;
/// Peak resident set size of the process, MiB.
double peak_rss_mb() noexcept;

// --- threads and CPUs ---------------------------------------------------------

/// The highest-numbered CPU the calling thread may run on (the first CPU of
/// a VM usually takes the interrupts); -1 if the mask cannot be read.
int pick_cpu();
/// Restrict the calling thread (and threads it creates later) to `cpu`.
/// Returns false when the kernel refuses; the benchmark then runs unpinned.
bool pin_current_thread(int cpu);
/// Kernel thread id of the calling thread.
pid_t current_tid() noexcept;

/// Syscall counters of one thread, from /proc/self/task/<tid>/io.
struct SyscallCounts {
  std::uint64_t reads = 0;   ///< syscr
  std::uint64_t writes = 0;  ///< syscw
};
SyscallCounts thread_syscalls(pid_t tid);

// --- allocation counting ----------------------------------------------------

/// Global operator new calls so far (the binary replaces operator new).
std::uint64_t allocations() noexcept;

// --- statistics -------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty vector.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// --- spans ------------------------------------------------------------------

/// One timed call: [start, end) on the wall clock, the span that caused it
/// (index into the log, -1 for a root) and the burst it belongs to.
struct Span {
  const char* cat = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t tid = 0;
  std::int64_t burst = -1;
};

/// Fixed-capacity in-memory span log.  Reserved once; when full, further
/// spans are counted as dropped instead of recorded, so a long traced run
/// never grows without bound.  Written out once, after measuring.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  /// Open a span whose end is not known yet; returns its index (-1 if the
  /// log is full).  Close it with close().
  int open(const char* cat, const char* name, std::int64_t start_ns,
           int parent, int tid, std::int64_t burst);
  void close(int index, std::int64_t end_ns) noexcept;
  /// Record a finished span.
  int add(const char* cat, const char* name, std::int64_t start_ns,
          std::int64_t end_ns, int parent, int tid, std::int64_t burst);

  void name_thread(int tid, std::string name);

  std::size_t size() const noexcept { return spans_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events plus "M" thread names),
  /// timestamps in microseconds since the first span.  Throws on I/O error.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::pair<int, std::string>> thread_names_;
  std::uint64_t dropped_ = 0;
};

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the correctness verdict, request
/// accounting, metrics, and the reason for every failed check.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void fail(std::string why);
  void metric(std::string name, double value, std::string unit);
};

/// The one JSON line the driver reads: correct, attempted, failed, metrics.
std::string to_json(const Outcome& o);

// --- the untraced measurement ------------------------------------------------

/// The untraced measurement of a run: every burst and set-up time, and the
/// run cut into windows of consecutive passes holding about kWindowSeconds
/// of burst time each.
///
/// The machine is a shared VM that runs this code in two speed modes about
/// 1.6x apart.  The mode switches every few hundred milliseconds as other
/// tenants come and go, and the share of time in the fast mode differs
/// from run to run (from none to most of it).  A statistic in the middle of
/// the distribution, such as a run-wide median, follows that share.  The
/// end-to-end metrics therefore sit on the slow side, where the slow mode
/// alone decides them: rates are the kRateQuantile quantile of the window
/// rates (the rate held in nine windows of ten) and burst latency is given
/// as p90 and p99.
///
/// Now and then the host stalls the VM for a few seconds, far beyond the
/// slow mode.  The 1% tail of a whole run would follow those stalls, so
/// the p99 is taken per segment of kSegmentWindows windows (about 3 s,
/// 1000 bursts or more for the serving workloads) and reported as the
/// median over the segments.
class RunWindows {
 public:
  static constexpr double kWindowSeconds = 0.1;
  static constexpr double kRateQuantile = 0.1;
  static constexpr std::size_t kSegmentWindows = 30;

  /// Record one finished pass (or replication): its decisions and events,
  /// its burst wall time, each burst's time and each set-up time.  Starts a
  /// new window when the current one is full.
  void add(double decisions, double events, std::int64_t burst_ns,
           const double* burst_us, std::size_t bursts, const double* setup_s,
           std::size_t setups);

  std::size_t windows() const noexcept { return windows_.size(); }
  std::size_t bursts() const noexcept { return burst_us_.size(); }

  /// decisions_per_s, events_per_s, burst_p90_us, burst_p99_us, setup_s
  /// and peak_rss_mb; the medians go to stderr alongside.
  void report(Outcome& o) const;

 private:
  struct Window {
    double decisions = 0.0;
    double events = 0.0;
    std::int64_t burst_ns = 0;
    std::size_t first_burst = 0;  ///< index into burst_us_
  };
  /// Median over segments of kSegmentWindows windows of each one's p99; a
  /// last segment shorter than half of that joins the one before it.
  double segment_p99() const;

  std::vector<Window> windows_;
  std::vector<double> burst_us_;
  std::vector<double> setup_s_;
};

/// Per-layer metric names reported by every traced run, in BENCHMARK.json
/// order, with their units.  A workload that bypasses a layer reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();
/// Append every per-layer metric to `o`: the measured value where the
/// workload produced one, 0 for layers it does not exercise.
void add_layer_metrics(Outcome& o,
                       const std::map<std::string, double>& measured);

/// Options every workload receives.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Negative self-test: when >= 0, every pass's admitted count must equal
  /// this value (a wrong value must fail the gate).
  std::int64_t expect_admitted = -1;
};

Outcome run_serve_admit(const RunOptions& opt);
Outcome run_wire_saturated(const RunOptions& opt);
Outcome run_multicell_storm(const RunOptions& opt);

}  // namespace perfbench
