// The simulator workload: `multicell-storm`.
//
// core::MultiCellEngine on the catalog scenario multicell-handover-storm
// (7 shards), 2000 new calls per cell per replication, sim.threads = 1, the
// driver thread pinned to one CPU.  A pass runs replication indices 0..3,
// each on a freshly constructed engine; the timed unit (a "burst") is one
// replication's run() call.
//
// Why one engine thread: with sim.threads = 2 every one of the ~1,500
// epochs of a replication wakes a pool thread on another vCPU and waits for
// it, and on a shared VM those cross-CPU wake-ups vary so much that run()
// times spread by about a quarter between identical runs.  One thread keeps
// the epoch loop, barrier, decide_batch and event queue on the measured
// path and the ThreadPool call inline.
//
// The traced run alternates plain and traced passes.  A traced pass turns on
// the library's own metrics registry (engine.* counters and drain/barrier
// histograms, fuzzy.* decide_batch counters) and attaches the public epoch
// observer, whose call times give each epoch's wall time from outside.
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "core/multicell.h"
#include "harness.h"
#include "obs/metrics.h"
#include "workload/catalog.h"

namespace perfbench {
namespace {

using namespace facsp;

constexpr int kCallsPerCell = 2000;
constexpr int kThreads = 1;
constexpr std::uint64_t kReplications = 4;
constexpr int kMinPasses = 2;
/// An untraced run has at least this many windows, so that the
/// RunWindows::kRateQuantile quantile of their rates is not the slowest.
constexpr std::size_t kMinWindows = 20;

/// What one replication must reproduce every time it runs.
struct Reference {
  std::uint64_t events = 0;
  std::uint64_t admitted = 0;
};

class MulticellBench {
 public:
  explicit MulticellBench(const RunOptions& opt)
      : opt_(opt), spans_(opt.trace ? (1u << 18) : 0) {}

  Outcome run();

 private:
  struct PassStats {
    std::vector<double> events_per_s;
  };

  /// Runs replications 0..kReplications-1; an untraced pass records each
  /// one in `windows`.
  void pass(bool traced, RunWindows* windows = nullptr);
  bool replication(std::uint64_t r, bool traced, std::uint64_t& events,
                   std::uint64_t& decisions, std::uint64_t& admitted,
                   std::int64_t& run_ns);

  RunOptions opt_;
  core::ScenarioConfig scenario_;
  core::PolicyFactory factory_;
  Outcome out_;
  SpanLog spans_;
  std::vector<Reference> reference_;
  std::int64_t pass_admitted_ref_ = -1;

  PassStats plain_, traced_;
  std::vector<double> burst_us_;  ///< plain passes' run() times
  std::vector<double> setup_s_;
  std::uint64_t replications_ = 0;
  std::uint64_t failed_ = 0;

  // Traced passes.
  std::vector<double> epoch_us_;
  std::uint64_t observed_epochs_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t handover_admitted_ = 0;
  std::uint64_t engine_epochs_ = 0;
  std::uint64_t epochs_skipped_ = 0;
  std::uint64_t shards_drained_ = 0;
  std::uint64_t barrier_ns_ = 0;
  std::int64_t epoch_gap_ns_ = 0;
  std::int64_t traced_run_ns_ = 0;
  std::uint64_t fuzzy_decisions_ = 0;
  std::uint64_t fuzzy_batch_ns_ = 0;
  std::uint64_t traced_decisions_ = 0;
  std::uint64_t traced_admitted_ = 0;
};

bool MulticellBench::replication(std::uint64_t r, bool traced,
                                 std::uint64_t& events,
                                 std::uint64_t& decisions,
                                 std::uint64_t& admitted,
                                 std::int64_t& run_ns) {
  const int root =
      traced ? spans_.open("bench", "replication", now_ns(), -1, 1,
                           static_cast<std::int64_t>(r))
             : -1;
  const auto burst = static_cast<std::int64_t>(r);
  const std::int64_t s0 = now_ns();
  core::MultiCellEngine engine(scenario_, factory_, r);
  const std::int64_t s1 = now_ns();
  setup_s_.push_back(static_cast<double>(s1 - s0) / 1e9);
  spans_.add("core", "construct", s0, s1, root, 1, burst);

  std::int64_t last = 0;
  int run_span = -1;
  if (traced) {
    obs::Registry::instance().reset_values();
    obs::set_metrics_enabled(true);
    engine.set_epoch_observer(
        [&](const core::MultiCellEngine::EpochStats& es) {
          const std::int64_t now = now_ns();
          epoch_us_.push_back(static_cast<double>(now - last) / 1e3);
          epoch_gap_ns_ += now - last;
          spans_.add("core", "epoch", last, now, run_span, 1, burst);
          last = now;
          ++observed_epochs_;
          delivered_ += es.delivered;
          handover_admitted_ += es.admitted;
        });
  }
  const std::int64_t r0 = now_ns();
  last = r0;
  run_span = traced ? spans_.open("core", "run", r0, root, 1, burst) : -1;
  const core::MultiCellResult res = engine.run(kCallsPerCell);
  const std::int64_t r1 = now_ns();
  spans_.close(run_span, r1);
  spans_.close(root, r1);
  run_ns = r1 - r0;

  const cellular::MetricsCollector& m = res.aggregate.metrics;
  events = res.aggregate.events;
  decisions = m.offered_new() + m.handoff_attempts();
  admitted = m.accepted_new() + m.handoff_successes();

  if (traced) {
    obs::set_metrics_enabled(false);
    obs::Registry& reg = obs::Registry::instance();
    engine_epochs_ += reg.counter("engine.epochs").value();
    epochs_skipped_ += reg.counter("engine.epochs_skipped").value();
    shards_drained_ += reg.counter("engine.shards_drained").value();
    barrier_ns_ += reg.histogram("engine.barrier_ns").sum();
    fuzzy_decisions_ += reg.counter("fuzzy.decisions").value();
    fuzzy_batch_ns_ += reg.histogram("fuzzy.batch_ns").sum();
    traced_run_ns_ += run_ns;
    traced_decisions_ += decisions;
    traced_admitted_ += admitted;
  }

  // Correctness: handovers conserve, and a replication index repeats.
  bool ok = true;
  std::uint64_t out = 0, in = 0;
  for (const core::MultiCellResult::Cell& c : res.cells) {
    out += c.handoffs_out;
    in += c.handoffs_in;
  }
  char buf[256];
  if (out != in) {
    std::snprintf(buf, sizeof buf,
                  "replication %llu: %llu handoffs out but %llu in",
                  static_cast<unsigned long long>(r),
                  static_cast<unsigned long long>(out),
                  static_cast<unsigned long long>(in));
    out_.fail(buf);
    ok = false;
  }
  Reference& ref = reference_[r];
  if (ref.events == 0) ref = {events, admitted};
  if (events != ref.events || admitted != ref.admitted) {
    std::snprintf(buf, sizeof buf,
                  "replication %llu: %llu events / %llu admitted, first run "
                  "had %llu / %llu",
                  static_cast<unsigned long long>(r),
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(admitted),
                  static_cast<unsigned long long>(ref.events),
                  static_cast<unsigned long long>(ref.admitted));
    out_.fail(buf);
    ok = false;
  }
  return ok;
}

void MulticellBench::pass(bool traced, RunWindows* windows) {
  std::uint64_t events = 0, admitted = 0;
  std::int64_t wall_ns = 0;
  for (std::uint64_t r = 0; r < kReplications; ++r) {
    ++replications_;
    std::uint64_t e = 0, d = 0, a = 0;
    std::int64_t ns = 0;
    try {
      if (!replication(r, traced, e, d, a, ns)) ++failed_;
    } catch (const std::exception& ex) {
      ++failed_;
      out_.fail(std::string("replication threw: ") + ex.what());
    }
    events += e;
    admitted += a;
    wall_ns += ns;
    if (!traced) burst_us_.push_back(static_cast<double>(ns) / 1e3);
    if (windows != nullptr && ns > 0)  // ns is set once run() returned
      windows->add(static_cast<double>(d), static_cast<double>(e), ns,
                   &burst_us_.back(), 1, &setup_s_.back(), 1);
  }
  if (pass_admitted_ref_ < 0) pass_admitted_ref_ = static_cast<std::int64_t>(admitted);
  if (static_cast<std::int64_t>(admitted) != pass_admitted_ref_)
    out_.fail("pass admitted " + std::to_string(admitted) + " calls, expected " +
              std::to_string(pass_admitted_ref_));
  PassStats& s = traced ? traced_ : plain_;
  const double wall_s = static_cast<double>(wall_ns) / 1e9;
  if (wall_s > 0.0) {
    s.events_per_s.push_back(static_cast<double>(events) / wall_s);
  }
}

Outcome MulticellBench::run() {
  pin_current_thread(pick_cpu());
  spans_.name_thread(1, "engine");
  scenario_ = workload::catalog_scenario("multicell-handover-storm");
  scenario_.seed = opt_.seed;
  scenario_.multicell.threads = kThreads;
  factory_ = core::make_facs_p_factory();
  reference_.assign(kReplications, Reference{});
  if (opt_.expect_admitted >= 0) pass_admitted_ref_ = opt_.expect_admitted;

  // Warm-up pass: fixes each replication's events and admitted count.
  pass(false);
  plain_ = PassStats{};
  burst_us_.clear();
  setup_s_.clear();

  const std::int64_t start = now_ns();
  const auto elapsed = [start] {
    return static_cast<double>(now_ns() - start) / 1e9;
  };
  // Untraced: plain passes, each replication measured in windows.
  RunWindows windows;
  while (!opt_.trace && out_.correct &&
         (windows.windows() < kMinWindows || elapsed() < opt_.seconds))
    pass(false, &windows);
  // Traced: plain and traced passes in turn.
  for (int i = 0; opt_.trace; ++i) {
    if (i >= 2 * kMinPasses && i % 2 == 0 && elapsed() >= opt_.seconds) break;
    if (!out_.correct && i >= 2 * kMinPasses) break;
    pass(i % 2 == 1);
  }

  out_.attempted = replications_;
  out_.failed = failed_;
  std::fprintf(stderr,
               "multicell-storm: %llu replications, %llu failed; %zu timed "
               "run() calls\n",
               static_cast<unsigned long long>(replications_),
               static_cast<unsigned long long>(failed_), burst_us_.size());

  if (!opt_.trace) {
    windows.report(out_);
    return out_;
  }

  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto run_ns = static_cast<double>(traced_run_ns_);
  std::map<std::string, double> m;
  m["cac.decide_ns_per_decision"] =
      ratio(static_cast<double>(fuzzy_batch_ns_),
            static_cast<double>(fuzzy_decisions_));
  m["cac.admitted_share"] = ratio(static_cast<double>(traced_admitted_),
                                  static_cast<double>(traced_decisions_));
  m["core.epoch_us_p50"] = percentile(epoch_us_, 0.5);
  m["core.shards_drained_per_epoch"] =
      ratio(static_cast<double>(shards_drained_),
            static_cast<double>(engine_epochs_));
  m["core.epochs_skipped_share"] =
      ratio(static_cast<double>(epochs_skipped_),
            static_cast<double>(engine_epochs_ + epochs_skipped_));
  const double barrier = ratio(static_cast<double>(barrier_ns_), run_ns);
  const double drain = ratio(
      static_cast<double>(epoch_gap_ns_) - static_cast<double>(barrier_ns_),
      run_ns);
  m["core.barrier_share"] = barrier;
  m["core.drain_share"] = drain;
  m["core.handovers_per_epoch"] = ratio(static_cast<double>(delivered_),
                                        static_cast<double>(observed_epochs_));
  m["core.handover_admit_share"] = ratio(
      static_cast<double>(handover_admitted_), static_cast<double>(delivered_));
  double events = 0.0;
  for (const Reference& r : reference_) events += static_cast<double>(r.events);
  m["core.events_per_replication"] = events / static_cast<double>(kReplications);
  m["core.setup_us_per_cell"] =
      median(setup_s_) * 1e6 / static_cast<double>(scenario_.multicell.cells);
  m["unattributed_share"] = 1.0 - barrier - drain;
  m["trace_overhead_share"] = 1.0 - ratio(median(traced_.events_per_s),
                                          median(plain_.events_per_s));
  add_layer_metrics(out_, m);

  const std::string path = opt_.out_dir + "/multicell-storm.trace.json";
  spans_.write_chrome_json(path);
  std::fprintf(stderr, "  trace: %zu spans (%llu dropped) -> %s\n",
               spans_.size(), static_cast<unsigned long long>(spans_.dropped()),
               path.c_str());
  return out_;
}

}  // namespace

Outcome run_multicell_storm(const RunOptions& opt) {
  return MulticellBench(opt).run();
}

}  // namespace perfbench
