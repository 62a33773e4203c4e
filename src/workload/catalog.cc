#include "workload/catalog.h"

#include "common/error.h"
#include "core/paper.h"

namespace facsp::workload {

namespace {

void register_builtins(ScenarioCatalog& catalog) {
  catalog.add("paper-grid",
              "paper Sec. 4 baseline: uniform arrivals over 900 s, 70/20/10 "
              "mix, centre cell only",
              [] { return core::paper_scenario(); });

  catalog.add("bursty-onoff",
              "ON/OFF (2-state MMPP) bursts: 8x intensity for ~60 s, near "
              "silence for ~180 s",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.traffic.arrival.kind = ArrivalKind::kOnOff;
                s.traffic.arrival.on_rate = 8.0;
                s.traffic.arrival.off_rate = 0.25;
                s.traffic.arrival.mean_on_s = 60.0;
                s.traffic.arrival.mean_off_s = 180.0;
                return s;
              });

  catalog.add("flash-crowd",
              "half of every batch lands in a 30 s spike at t=300 s; the "
              "rest spreads over the window",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.traffic.arrival.kind = ArrivalKind::kFlashCrowd;
                s.traffic.arrival.flash_fraction = 0.5;
                s.traffic.arrival.flash_start_s = 300.0;
                s.traffic.arrival.flash_duration_s = 30.0;
                return s;
              });

  catalog.add("diurnal",
              "sinusoidal arrival intensity (amplitude 0.8, one period per "
              "900 s window) sampled by thinning",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.traffic.arrival.kind = ArrivalKind::kDiurnal;
                s.traffic.arrival.diurnal_amplitude = 0.8;
                s.traffic.arrival.diurnal_period_s = 900.0;
                s.traffic.arrival.diurnal_phase_rad = 0.0;
                return s;
              });

  catalog.add("hotspot-ring2",
              "19-cell grid with load decaying 2x per ring away from the "
              "centre hotspot",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.rings = 2;
                s.spatial.kind = SpatialKind::kHotspot;
                s.spatial.hotspot_decay = 0.5;
                return s;
              });

  catalog.add("highway",
              "19-cell grid; full load and 100 km/h users along an "
              "east-west corridor, 10% load elsewhere",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.rings = 2;
                s.spatial.kind = SpatialKind::kHighway;
                s.spatial.highway_halfwidth_m = 2000.0;
                s.spatial.highway_off_weight = 0.1;
                s.traffic.fixed_speed_kmh = 100.0;
                return s;
              });

  catalog.add("downtown",
              "19-cell grid, every cell equally loaded with the paper "
              "70/20/10 mix",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.rings = 2;
                s.spatial.kind = SpatialKind::kUniform;
                return s;
              });

  catalog.add("handoff-storm",
              "downtown with every user at 100 km/h and 360 s mean "
              "holding: long fast calls hand off again and again",
              [] {
                core::ScenarioConfig s = catalog_scenario("downtown");
                s.traffic.fixed_speed_kmh = 100.0;
                s.traffic.mean_holding_s = 360.0;
                return s;
              });

  catalog.add("multicell-ring1",
              "7 sharded single-BS cells on a ring-1 super-grid; every cell "
              "runs the paper workload, handovers cross shard boundaries",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                // One BS per shard: the super grid IS the cell grid, so
                // every handoff is an inter-cell (batched) admission.
                s.rings = 0;
                s.multicell.cells = 7;
                return s;
              });

  catalog.add("multicell-handover-storm",
              "7 sharded 500 m cells, paper speed mix compressed into a "
              "450 s window: calls cross several cells per holding time, "
              "handover admissions dominate the decision mix",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.rings = 0;
                s.multicell.cells = 7;
                s.cell_radius_m = 500.0;
                s.traffic.arrival_window_s = 450.0;
                return s;
              });

  catalog.add("multicell-sparse-100",
              "100 sharded 500 m cells, fresh traffic only in the centre "
              "cell: the quiet 99% exercise the engine's event-driven epoch "
              "skipping and active-shard index",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.rings = 0;
                s.multicell.cells = 100;
                s.multicell.workload_cells = 1;
                s.cell_radius_m = 500.0;
                s.traffic.arrival_window_s = 450.0;
                return s;
              });

  catalog.add("mix-shift",
              "service mix shifts video-heavy (40/20/40) halfway through "
              "the window — the ROADMAP's ratio sweep in one scenario",
              [] {
                core::ScenarioConfig s = core::paper_scenario();
                s.traffic.mix_schedule = MixSchedule({
                    {0.0, cellular::TrafficMix{0.70, 0.20, 0.10}},
                    {450.0, cellular::TrafficMix{0.40, 0.20, 0.40}},
                });
                return s;
              });
}

}  // namespace

ScenarioCatalog& ScenarioCatalog::instance() {
  static ScenarioCatalog catalog = [] {
    ScenarioCatalog c;
    register_builtins(c);
    return c;
  }();
  return catalog;
}

void ScenarioCatalog::add(std::string name, std::string description,
                          Builder builder) {
  if (name.empty()) throw ConfigError("catalog: scenario name must not be empty");
  if (!builder) throw ConfigError("catalog: scenario builder must not be empty");
  if (contains(name))
    throw ConfigError("catalog: scenario '" + name + "' already registered");
  entries_.push_back({std::move(name), std::move(description),
                      std::move(builder)});
}

const ScenarioCatalog::Entry* ScenarioCatalog::find(
    std::string_view name) const noexcept {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

core::ScenarioConfig ScenarioCatalog::build(const std::string& name) const {
  const Entry* entry = find(name);
  if (entry == nullptr) {
    std::string known;
    for (const Entry& e : entries_)
      known += (known.empty() ? "" : "|") + e.name;
    throw ConfigError("catalog: unknown scenario '" + name + "' (" + known +
                      ")");
  }
  core::ScenarioConfig scenario = entry->build();
  scenario.validate();
  return scenario;
}

std::vector<std::string> ScenarioCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

core::ScenarioConfig catalog_scenario(const std::string& name) {
  return ScenarioCatalog::instance().build(name);
}

}  // namespace facsp::workload
