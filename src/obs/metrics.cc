#include "obs/metrics.h"

#include <ostream>

#include "common/error.h"
#include "common/file_io.h"
#include "core/config_io.h"

namespace facsp::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

const char* kind_name(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  if (!(q >= 0.0 && q <= 1.0)) return 0;
  const LocalHistogram s = snapshot();
  return s.count() == 0 ? 0 : s.percentile_ns(q);
}

LocalHistogram Histogram::snapshot() const noexcept {
  LocalHistogram s;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    s.counts_[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count_ += s.counts_[i];
  }
  s.sum_ = sum();
  s.max_ = max();
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Entry& Registry::entry_for(std::string_view name, Kind kind) {
  if (name.empty()) throw ConfigError("obs: metric name must not be empty");
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw ConfigError("obs: metric '" + std::string(name) +
                      "' already registered as a " +
                      kind_name(static_cast<int>(it->second.kind)) +
                      ", requested as a " + kind_name(static_cast<int>(kind)));
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return *entry_for(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *entry_for(name, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  return *entry_for(name, Kind::kHistogram).histogram;
}

std::size_t Registry::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void Registry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->reset();
        break;
      case Kind::kGauge:
        entry.gauge->reset();
        break;
      case Kind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

namespace {

void write_histogram_json(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.count() << ", \"sum\": " << h.sum()
     << ", \"mean\": " << core::format_double(h.mean())
     << ", \"p50\": " << h.percentile(0.50)
     << ", \"p95\": " << h.percentile(0.95)
     << ", \"p99\": " << h.percentile(0.99)
     << ", \"p999\": " << h.percentile(0.999) << ", \"max\": " << h.max()
     << "}";
}

}  // namespace

void Registry::write_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  os << "{\n";
  const char* section_names[3] = {"counters", "gauges", "histograms"};
  for (int kind = 0; kind < 3; ++kind) {
    os << "  \"" << section_names[kind] << "\": {";
    bool first = true;
    for (const auto& [name, entry] : entries_) {
      if (static_cast<int>(entry.kind) != kind) continue;
      os << (first ? "\n" : ",\n") << "    \"" << name << "\": ";
      first = false;
      switch (entry.kind) {
        case Kind::kCounter:
          os << entry.counter->value();
          break;
        case Kind::kGauge:
          os << entry.gauge->value();
          break;
        case Kind::kHistogram:
          write_histogram_json(os, *entry.histogram);
          break;
      }
    }
    os << (first ? "" : "\n  ") << "}" << (kind < 2 ? "," : "") << "\n";
  }
  os << "}\n";
}

void Registry::write_json(const std::string& path) const {
  write_file(path, [&](std::ostream& os) { write_json(os); });
}

void Registry::write_csv(std::ostream& os) const {
  std::lock_guard lock(mu_);
  os << "kind,name,field,value\n";
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        os << "counter," << name << ",value," << entry.counter->value()
           << '\n';
        break;
      case Kind::kGauge:
        os << "gauge," << name << ",value," << entry.gauge->value() << '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        os << "histogram," << name << ",count," << h.count() << '\n'
           << "histogram," << name << ",sum," << h.sum() << '\n'
           << "histogram," << name << ",mean,"
           << core::format_double(h.mean()) << '\n'
           << "histogram," << name << ",p50," << h.percentile(0.50) << '\n'
           << "histogram," << name << ",p95," << h.percentile(0.95) << '\n'
           << "histogram," << name << ",p99," << h.percentile(0.99) << '\n'
           << "histogram," << name << ",p999," << h.percentile(0.999) << '\n'
           << "histogram," << name << ",max," << h.max() << '\n';
        break;
      }
    }
  }
}

void Registry::write_csv(const std::string& path) const {
  write_file(path, [&](std::ostream& os) { write_csv(os); });
}

void write_snapshot(const std::string& path) {
  const Registry& reg = Registry::instance();
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
    reg.write_csv(path);
  else
    reg.write_json(path);
}

std::string labeled(std::string_view name, std::string_view key,
                    std::int64_t value) {
  std::string out;
  out.reserve(name.size() + key.size() + 24);
  out.append(name);
  out.push_back('{');
  out.append(key);
  out.push_back('=');
  out.append(std::to_string(value));
  out.push_back('}');
  return out;
}

}  // namespace facsp::obs
