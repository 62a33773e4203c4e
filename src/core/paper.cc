#include "core/paper.h"

namespace facsp::core {

ScenarioConfig paper_scenario(std::uint64_t seed) {
  ScenarioConfig s;
  s.seed = seed;
  // Paper Sec. 4 defaults are already the struct defaults; restated here so
  // the provenance is explicit in one place.
  s.capacity_bu = 40.0;
  s.traffic.mix = cellular::TrafficMix{0.70, 0.20, 0.10};
  s.traffic.min_speed_kmh = 0.0;
  s.traffic.max_speed_kmh = 120.0;
  s.traffic.arrival_window_s = 900.0;
  s.traffic.mean_holding_s = 300.0;
  return s;
}

ScenarioConfig paper_scenario_fixed_speed(double speed_kmh,
                                          std::uint64_t seed) {
  ScenarioConfig s = paper_scenario(seed);
  s.traffic.fixed_speed_kmh = speed_kmh;
  return s;
}

ScenarioConfig paper_scenario_fixed_angle(double angle_deg,
                                          std::uint64_t seed) {
  ScenarioConfig s = paper_scenario(seed);
  s.traffic.fixed_angle_deg = angle_deg;
  // The Fig. 9 series pins every user's angle for the whole experiment; a
  // wandering trajectory would not keep the configured angle, so mobility
  // is off here (users hold their bandwidth for the full call duration).
  s.enable_mobility = false;
  return s;
}

std::vector<int> paper_n_values() {
  std::vector<int> ns;
  for (int n = 10; n <= 100; n += 10) ns.push_back(n);
  return ns;
}

}  // namespace facsp::core
