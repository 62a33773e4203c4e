#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>

// --- counting operator new ----------------------------------------------------
//
// cellular.allocs_per_admission counts heap allocations made inside
// ShardCore::process_batch.  Replacing the global operator new is the only
// way to see them from outside the library; the cost is one relaxed atomic
// increment per allocation, paid equally by every run.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

// --- clocks -----------------------------------------------------------------

std::int64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- threads and CPUs ---------------------------------------------------------

int pick_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c)
    if (CPU_ISSET(c, &set)) return c;
  return -1;
}

bool pin_current_thread(int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

pid_t current_tid() noexcept { return static_cast<pid_t>(syscall(SYS_gettid)); }

SyscallCounts thread_syscalls(pid_t tid) {
  SyscallCounts out;
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "syscr:") out.reads = value;
    if (key == "syscw:") out.writes = value;
  }
  return out;
}

// --- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// --- the untraced measurement ------------------------------------------------

void RunWindows::add(double decisions, double events, std::int64_t burst_ns,
                     const double* burst_us, std::size_t bursts,
                     const double* setup_s, std::size_t setups) {
  if (windows_.empty() ||
      static_cast<double>(windows_.back().burst_ns) >= kWindowSeconds * 1e9)
    windows_.push_back(Window{.first_burst = burst_us_.size()});
  Window& w = windows_.back();
  w.decisions += decisions;
  w.events += events;
  w.burst_ns += burst_ns;
  burst_us_.insert(burst_us_.end(), burst_us, burst_us + bursts);
  setup_s_.insert(setup_s_.end(), setup_s, setup_s + setups);
}

double RunWindows::segment_p99() const {
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows_.size();) {
    std::size_t end = std::min(w + kSegmentWindows, windows_.size());
    if (windows_.size() - end < kSegmentWindows / 2) end = windows_.size();
    const auto b0 = burst_us_.begin() +
                    static_cast<std::ptrdiff_t>(windows_[w].first_burst);
    const auto b1 = end < windows_.size()
                        ? burst_us_.begin() + static_cast<std::ptrdiff_t>(
                                                  windows_[end].first_burst)
                        : burst_us_.end();
    p99s.push_back(percentile(std::vector<double>(b0, b1), 0.99));
    w = end;
  }
  return median(std::move(p99s));
}

void RunWindows::report(Outcome& o) const {
  std::vector<double> decisions, events;
  for (const Window& w : windows_) {
    const double s =
        static_cast<double>(std::max<std::int64_t>(w.burst_ns, 1)) / 1e9;
    decisions.push_back(w.decisions / s);
    events.push_back(w.events / s);
  }
  std::fprintf(stderr,
               "  %zu windows of %.2f s burst time, %zu bursts, %zu set-ups; "
               "medians: %.6g decisions/s, %.6g events/s, burst %.6g us, "
               "set-up %.6g s; whole-run burst p99 %.6g us\n",
               windows_.size(), kWindowSeconds, burst_us_.size(),
               setup_s_.size(), median(decisions), median(events),
               median(burst_us_), median(setup_s_),
               percentile(burst_us_, 0.99));
  o.metric("decisions_per_s", percentile(decisions, kRateQuantile), "1/s");
  o.metric("events_per_s", percentile(events, kRateQuantile), "1/s");
  o.metric("burst_p90_us", percentile(burst_us_, 0.90), "us");
  o.metric("burst_p99_us", segment_p99(), "us");
  o.metric("setup_s", median(setup_s_), "s");
  o.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// --- spans ------------------------------------------------------------------

SpanLog::SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

int SpanLog::open(const char* cat, const char* name, std::int64_t start_ns,
                  int parent, int tid, std::int64_t burst) {
  return add(cat, name, start_ns, start_ns, parent, tid, burst);
}

void SpanLog::close(int index, std::int64_t end_ns) noexcept {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
}

int SpanLog::add(const char* cat, const char* name, std::int64_t start_ns,
                 std::int64_t end_ns, int parent, int tid,
                 std::int64_t burst) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({cat, name, start_ns, end_ns, parent, tid, burst});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::name_thread(int tid, std::string name) {
  thread_names_.emplace_back(tid, std::move(name));
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::int64_t origin = 0;
  if (!spans_.empty()) {
    origin = spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  }
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  char buf[512];
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"burst\":%lld}}",
                  first ? "" : ",", s.cat, s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(std::max<std::int64_t>(
                      0, s.end_ns - s.start_ns)) / 1e3,
                  i, s.parent, static_cast<long long>(s.burst));
    os << buf;
    first = false;
  }
  for (const auto& [tid, name] : thread_names_) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid, name.c_str());
    os << buf;
    first = false;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("failed writing trace file " + path);
}

// --- results ----------------------------------------------------------------

void Outcome::fail(std::string why) {
  correct = false;
  failures.push_back(std::move(why));
}

void Outcome::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void add_layer_metrics(Outcome& o,
                       const std::map<std::string, double>& measured) {
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = measured.find(m.name);
    o.metric(m.name, it == measured.end() ? 0.0 : it->second, m.unit);
  }
}

std::string to_json(const Outcome& o) {
  std::ostringstream os;
  os << "{\"correct\": " << (o.correct ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    // Full precision: the value exactly as measured.  Non-finite values
    // (a ratio over an empty denominator) are not valid JSON; report 0.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"net.write_calls_per_decision", "calls/decision"},
      {"net.read_calls_per_decision", "calls/decision"},
      {"net.server_cpu_us_per_decision", "us/decision"},
      {"net.server_busy_share", "share"},
      {"net.client_cpu_us_per_decision", "us/decision"},
      {"net.overhead_us_per_burst", "us/burst"},
      {"serve.buffer_ns_per_request", "ns/request"},
      {"serve.batch_close_us_p50", "us"},
      {"serve.batch_size_mean", "requests"},
      {"serve.process_batch_ns_per_decision", "ns/decision"},
      {"serve.finish_second_us_p99", "us"},
      {"serve.active_sessions_mean", "sessions"},
      {"cac.decide_ns_per_decision", "ns/decision"},
      {"cac.admitted_share", "share"},
      {"cac.demoted_share", "share"},
      {"cellular.apply_ns_per_decision", "ns/decision"},
      {"cellular.allocs_per_admission", "allocs/admission"},
      {"core.epoch_us_p50", "us"},
      {"core.shards_drained_per_epoch", "shards/epoch"},
      {"core.epochs_skipped_share", "share"},
      {"core.barrier_share", "share"},
      {"core.drain_share", "share"},
      {"core.handovers_per_epoch", "handovers/epoch"},
      {"core.handover_admit_share", "share"},
      {"core.events_per_replication", "events"},
      {"core.setup_us_per_cell", "us/cell"},
      {"unattributed_share", "share"},
      {"trace_overhead_share", "share"},
  };
  return kMetrics;
}

}  // namespace perfbench
