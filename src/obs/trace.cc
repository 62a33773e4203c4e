#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/file_io.h"
#include "core/config_io.h"

namespace facsp::obs {

namespace {

/// One span as stored in a thread's ring.
struct Event {
  const char* cat;
  const char* name;
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;
  std::int64_t arg;
};

/// Per-thread track: a fixed-capacity ring the owning thread writes without
/// synchronisation.  Lives in the global registry (stable address) so
/// write_json can read it after the thread finished.
struct Track {
  explicit Track(int tid_, std::size_t capacity) : tid(tid_) {
    ring.reserve(capacity);
  }
  int tid;
  std::string name;
  std::vector<Event> ring;  ///< grows to capacity once, then wraps
  std::size_t capacity() const noexcept { return ring.capacity(); }
  std::uint64_t total = 0;  ///< events ever recorded (wrap bookkeeping)

  void push(const Event& ev) {
    if (ring.size() < ring.capacity()) {
      ring.push_back(ev);
    } else if (!ring.empty()) {
      ring[static_cast<std::size_t>(total % ring.capacity())] = ev;
    }
    ++total;
  }
};

struct Global {
  std::atomic<bool> enabled{false};
  /// Bumped by start()/clear(): invalidates every thread's cached track.
  std::atomic<std::uint64_t> generation{1};
  Tracer::Clock::time_point origin = Tracer::Clock::now();
  std::mutex mu;  ///< guards tracks / ring_capacity / next_tid
  std::vector<std::unique_ptr<Track>> tracks;
  std::size_t ring_capacity = Tracer::kDefaultRingCapacity;
  int next_tid = 0;
};

Global& global() {
  static Global g;
  return g;
}

struct ThreadCache {
  Track* track = nullptr;
  std::uint64_t generation = 0;
};

thread_local ThreadCache t_cache;

/// The calling thread's track for the current generation, registering it
/// (one allocation, under the control-plane mutex) on first use.
Track& current_track() {
  Global& g = global();
  const std::uint64_t gen = g.generation.load(std::memory_order_acquire);
  if (t_cache.track == nullptr || t_cache.generation != gen) {
    std::lock_guard lock(g.mu);
    g.tracks.push_back(
        std::make_unique<Track>(g.next_tid++, g.ring_capacity));
    t_cache.track = g.tracks.back().get();
    t_cache.generation = gen;
  }
  return *t_cache.track;
}

/// Minimal JSON string escaping for thread names (categories and span names
/// are compile-time literals under our control, but escape uniformly).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
  return out;
}

/// Microseconds (the trace-event unit) with nanosecond resolution, through
/// the byte-stable double formatter.
std::string micros(std::uint64_t ns) {
  return core::format_double(static_cast<double>(ns) / 1000.0);
}

}  // namespace

bool Tracer::enabled() noexcept {
  return global().enabled.load(std::memory_order_relaxed);
}

void Tracer::start(std::size_t ring_capacity) {
  Global& g = global();
  g.enabled.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(g.mu);
    g.tracks.clear();
    g.next_tid = 0;
    g.ring_capacity = ring_capacity == 0 ? 1 : ring_capacity;
  }
  g.origin = Clock::now();
  g.generation.fetch_add(1, std::memory_order_release);
  g.enabled.store(true, std::memory_order_relaxed);
}

void Tracer::stop() noexcept {
  global().enabled.store(false, std::memory_order_relaxed);
}

void Tracer::clear() {
  Global& g = global();
  g.enabled.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(g.mu);
    g.tracks.clear();
    g.next_tid = 0;
  }
  g.generation.fetch_add(1, std::memory_order_release);
}

void Tracer::set_thread_name(std::string_view name) {
  if (!enabled()) return;
  current_track().name.assign(name.begin(), name.end());
}

std::uint64_t Tracer::to_trace_ns(Clock::time_point tp) noexcept {
  const Global& g = global();
  if (tp <= g.origin) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - g.origin)
          .count());
}

void Tracer::record(const char* cat, const char* name, std::uint64_t ts_ns,
                    std::uint64_t dur_ns, std::int64_t arg) {
  if (!enabled()) return;
  current_track().push(Event{cat, name, ts_ns, dur_ns, arg});
}

void Tracer::write_json(std::ostream& os) {
  Global& g = global();
  std::lock_guard lock(g.mu);

  struct Flat {
    const Event* ev;
    int tid;
  };
  std::vector<Flat> events;
  for (const auto& track : g.tracks) {
    // Ring order: when wrapped, the oldest retained event sits at
    // total % capacity.
    const std::size_t n = track->ring.size();
    const std::size_t first =
        track->total > n
            ? static_cast<std::size_t>(track->total % track->capacity())
            : 0;
    for (std::size_t i = 0; i < n; ++i)
      events.push_back(Flat{&track->ring[(first + i) % n], track->tid});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Flat& a, const Flat& b) {
                     return a.ev->ts_ns != b.ev->ts_ns
                                ? a.ev->ts_ns < b.ev->ts_ns
                                : a.tid < b.tid;
                   });

  os << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [";
  bool first = true;
  for (const auto& track : g.tracks) {
    if (track->name.empty()) continue;
    os << (first ? "\n" : ",\n")
       << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << track->tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << json_escape(track->name) << "\"}}";
    first = false;
  }
  for (const Flat& f : events) {
    os << (first ? "\n" : ",\n")
       << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << f.tid << ", \"cat\": \""
       << json_escape(f.ev->cat) << "\", \"name\": \""
       << json_escape(f.ev->name) << "\", \"ts\": " << micros(f.ev->ts_ns)
       << ", \"dur\": " << micros(f.ev->dur_ns);
    if (f.ev->arg != kNoArg) os << ", \"args\": {\"v\": " << f.ev->arg << "}";
    os << "}";
    first = false;
  }
  os << (first ? "]" : "\n]") << "\n}\n";
}

void Tracer::write_json(const std::string& path) {
  write_file(path, [](std::ostream& os) { write_json(os); });
}

std::uint64_t Tracer::recorded_events() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  std::uint64_t total = 0;
  for (const auto& track : g.tracks) total += track->total;
  return total;
}

std::size_t Tracer::buffered_events() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  std::size_t total = 0;
  for (const auto& track : g.tracks) total += track->ring.size();
  return total;
}

std::size_t Tracer::track_count() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  return g.tracks.size();
}

}  // namespace facsp::obs
