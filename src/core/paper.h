// Canonical paper scenarios: one place where every bench, test and example
// gets the Sec. 4 setup (40 BU cell, 70/20/10 mix at 1/5/10 BU, speeds
// 0..120 km/h, angles -180..180) and the per-figure variations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"

namespace facsp::core {

/// The baseline Sec. 4 scenario (random speed, random angle).
ScenarioConfig paper_scenario(std::uint64_t seed = 42);

/// Fig. 8 variant: every user moves at `speed_kmh`.
ScenarioConfig paper_scenario_fixed_speed(double speed_kmh,
                                          std::uint64_t seed = 42);

/// Fig. 9 variant: every user's |angle to BS| is `angle_deg` (random sign).
ScenarioConfig paper_scenario_fixed_angle(double angle_deg,
                                          std::uint64_t seed = 42);

/// The x axis of Figs. 7-10: N = 10, 20, ..., 100 requesting connections.
std::vector<int> paper_n_values();

}  // namespace facsp::core
