#include "core/config_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/paper.h"
#include "net/server.h"
#include "serve/decision_loop.h"
#include "workload/catalog.h"

namespace facsp::core {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryField) {
  ScenarioConfig original = paper_scenario(123);
  original.rings = 2;
  original.cell_radius_m = 1750.0;
  original.capacity_bu = 48.0;
  original.enable_mobility = false;
  original.spatial.kind = workload::SpatialKind::kHighway;
  original.spatial.hotspot_decay = 0.25;
  original.spatial.highway_halfwidth_m = 900.0;
  original.spatial.highway_off_weight = 0.05;
  original.traffic.arrival.kind = workload::ArrivalKind::kOnOff;
  original.traffic.arrival.on_rate = 6.0;
  original.traffic.arrival.off_rate = 0.5;
  original.traffic.arrival.mean_on_s = 45.0;
  original.traffic.arrival.mean_off_s = 90.0;
  original.traffic.arrival.flash_fraction = 0.4;
  original.traffic.priority_low = 0.1;
  original.traffic.priority_normal = 0.7;
  original.traffic.priority_high = 0.2;
  original.traffic.mix_schedule = workload::MixSchedule(
      {{0.0, cellular::TrafficMix{0.6, 0.25, 0.15}},
       {300.0, cellular::TrafficMix{0.3, 0.3, 0.4}}});
  original.mobility_update_s = 2.5;
  original.horizon_s = 7200.0;
  original.traffic.arrival_window_s = 450.0;
  original.traffic.mean_holding_s = 210.0;
  original.traffic.mix = cellular::TrafficMix{0.6, 0.25, 0.15};
  original.traffic.min_speed_kmh = 5.0;
  original.traffic.max_speed_kmh = 90.0;
  original.traffic.fixed_speed_kmh = 42.0;
  original.traffic.fixed_angle_deg = -30.0;
  original.mobility.base_sigma_deg = 37.0;
  original.predictor.reference_kmh = 25.0;

  const ScenarioConfig parsed =
      scenario_from_string(scenario_to_string(original));

  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_EQ(parsed.rings, original.rings);
  EXPECT_DOUBLE_EQ(parsed.cell_radius_m, original.cell_radius_m);
  EXPECT_DOUBLE_EQ(parsed.capacity_bu, original.capacity_bu);
  EXPECT_EQ(parsed.enable_mobility, original.enable_mobility);
  EXPECT_EQ(parsed.spatial.kind, original.spatial.kind);
  EXPECT_DOUBLE_EQ(parsed.spatial.hotspot_decay,
                   original.spatial.hotspot_decay);
  EXPECT_DOUBLE_EQ(parsed.spatial.highway_halfwidth_m,
                   original.spatial.highway_halfwidth_m);
  EXPECT_DOUBLE_EQ(parsed.spatial.highway_off_weight,
                   original.spatial.highway_off_weight);
  EXPECT_EQ(parsed.traffic.arrival.kind, original.traffic.arrival.kind);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.on_rate,
                   original.traffic.arrival.on_rate);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.off_rate,
                   original.traffic.arrival.off_rate);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.mean_on_s,
                   original.traffic.arrival.mean_on_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.mean_off_s,
                   original.traffic.arrival.mean_off_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival.flash_fraction,
                   original.traffic.arrival.flash_fraction);
  EXPECT_DOUBLE_EQ(parsed.traffic.priority_low, original.traffic.priority_low);
  EXPECT_DOUBLE_EQ(parsed.traffic.priority_normal,
                   original.traffic.priority_normal);
  EXPECT_DOUBLE_EQ(parsed.traffic.priority_high,
                   original.traffic.priority_high);
  EXPECT_EQ(parsed.traffic.mix_schedule, original.traffic.mix_schedule);
  EXPECT_DOUBLE_EQ(parsed.mobility_update_s, original.mobility_update_s);
  EXPECT_DOUBLE_EQ(parsed.horizon_s, original.horizon_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.arrival_window_s,
                   original.traffic.arrival_window_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.mean_holding_s,
                   original.traffic.mean_holding_s);
  EXPECT_DOUBLE_EQ(parsed.traffic.mix.text, original.traffic.mix.text);
  EXPECT_DOUBLE_EQ(parsed.traffic.mix.voice, original.traffic.mix.voice);
  EXPECT_DOUBLE_EQ(parsed.traffic.mix.video, original.traffic.mix.video);
  ASSERT_TRUE(parsed.traffic.fixed_speed_kmh.has_value());
  EXPECT_DOUBLE_EQ(*parsed.traffic.fixed_speed_kmh, 42.0);
  ASSERT_TRUE(parsed.traffic.fixed_angle_deg.has_value());
  EXPECT_DOUBLE_EQ(*parsed.traffic.fixed_angle_deg, -30.0);
  EXPECT_DOUBLE_EQ(parsed.mobility.base_sigma_deg, 37.0);
  EXPECT_DOUBLE_EQ(parsed.predictor.reference_kmh, 25.0);
}

TEST(ConfigIo, DefaultsWhenKeysOmitted) {
  const ScenarioConfig parsed = scenario_from_string("seed = 9\n");
  const ScenarioConfig defaults;
  EXPECT_EQ(parsed.seed, 9u);
  EXPECT_EQ(parsed.rings, defaults.rings);
  EXPECT_DOUBLE_EQ(parsed.capacity_bu, defaults.capacity_bu);
}

TEST(ConfigIo, CommentsAndBlankLines) {
  const auto parsed = scenario_from_string(R"(
# a comment
seed = 4     # trailing comment

capacity_bu = 20
)");
  EXPECT_EQ(parsed.seed, 4u);
  EXPECT_DOUBLE_EQ(parsed.capacity_bu, 20.0);
}

TEST(ConfigIo, NoneClearsOptionalFields) {
  const auto parsed = scenario_from_string(
      "traffic.fixed_speed_kmh = 50\ntraffic.fixed_speed_kmh = none\n");
  EXPECT_FALSE(parsed.traffic.fixed_speed_kmh.has_value());
}

TEST(ConfigIo, UnknownKeyIsAnError) {
  try {
    scenario_from_string("sede = 4\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("sede"), std::string::npos);
  }
}

TEST(ConfigIo, BadValueIsAnErrorWithLine) {
  try {
    scenario_from_string("seed = 1\ncapacity_bu = fast\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(ConfigIo, MissingEqualsIsAnError) {
  EXPECT_THROW(scenario_from_string("seed 4\n"), ParseError);
}

TEST(ConfigIo, SemanticValidationApplies) {
  // Parses fine, but the mix does not sum to 1 -> ConfigError from
  // validate().
  EXPECT_THROW(scenario_from_string("traffic.mix.text = 0.9\n"), ConfigError);
}

TEST(ConfigIo, DegenerateMobilityFileIsAConfigErrorAtLoad) {
  // predictor.reference_kmh = 0 makes the angle-error sigma 0/0 for a
  // stationary user; it must fail at load, not as a NaN stddev mid-run.
  const std::string path = "/tmp/facsp_degenerate_mobility.cfg";
  {
    std::ofstream out(path);
    out << "predictor.reference_kmh = 0\ntraffic.fixed_speed_kmh = 0\n";
  }
  EXPECT_THROW(load_scenario_file(path), ConfigError);
  std::remove(path.c_str());
}

TEST(ConfigIo, ValidateRefusesDegenerateMobility) {
  using Set = void (*)(ScenarioConfig&);
  const std::pair<const char*, Set> cases[] = {
      {"mobility.reference_kmh = 0",
       [](ScenarioConfig& s) { s.mobility.reference_kmh = 0.0; }},
      {"predictor.reference_kmh = -1",
       [](ScenarioConfig& s) { s.predictor.reference_kmh = -1.0; }},
      {"mobility.base_sigma_deg = -1",
       [](ScenarioConfig& s) { s.mobility.base_sigma_deg = -1.0; }},
      {"predictor.base_sigma_deg = -1",
       [](ScenarioConfig& s) { s.predictor.base_sigma_deg = -1.0; }},
      {"mobility.update_interval_s = 0",
       [](ScenarioConfig& s) { s.mobility.update_interval_s = 0.0; }},
      {"mobility.speed_sigma_kmh = -1",
       [](ScenarioConfig& s) { s.mobility.speed_sigma_kmh = -1.0; }},
      {"mobility.min_speed_kmh > max_speed_kmh",
       [](ScenarioConfig& s) {
         s.mobility.min_speed_kmh = 50.0;
         s.mobility.max_speed_kmh = 10.0;
       }},
  };
  for (const auto& [name, set] : cases) {
    ScenarioConfig s;
    set(s);
    EXPECT_THROW(s.validate(), ConfigError) << name;
  }
  // Zero volatility is a valid (noise-free) model.
  ScenarioConfig still;
  still.mobility.base_sigma_deg = 0.0;
  still.predictor.base_sigma_deg = 0.0;
  EXPECT_NO_THROW(still.validate());
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = "/tmp/facsp_scenario_test.cfg";
  ScenarioConfig original = paper_scenario(55);
  original.capacity_bu = 33.0;
  save_scenario_file(original, path);
  const ScenarioConfig loaded = load_scenario_file(path);
  EXPECT_EQ(loaded.seed, 55u);
  EXPECT_DOUBLE_EQ(loaded.capacity_bu, 33.0);
  std::remove(path.c_str());
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(load_scenario_file("/nonexistent/facsp.cfg"), Error);
}

TEST(ConfigIo, UnknownArrivalOrSpatialKindIsAnError) {
  EXPECT_THROW(scenario_from_string("traffic.arrival.kind = burst\n"),
               ParseError);
  EXPECT_THROW(scenario_from_string("spatial.kind = everywhere\n"),
               ParseError);
}

TEST(ConfigIo, RemovedBackgroundTrafficKeyIsAnError) {
  // The all-or-nothing flag was replaced by spatial.kind; old configs must
  // fail loudly, not silently revert to center-only.
  EXPECT_THROW(scenario_from_string("background_traffic = true\n"),
               ParseError);
}

TEST(ConfigIo, DoubleRoundTripIsLossless) {
  // Dumped configs must reproduce the in-memory scenario bit for bit — a
  // 6-significant-digit printer would silently change the simulation (or
  // even make a valid mix unloadable: thirds truncate to a sum of
  // 0.999999, outside validate()'s tolerance).
  ScenarioConfig original = paper_scenario(1);
  original.traffic.arrival.kind = workload::ArrivalKind::kDiurnal;
  original.traffic.arrival.diurnal_phase_rad = 0.78539816339744828;  // pi/4
  const double third = 1.0 / 3.0;
  original.traffic.mix = cellular::TrafficMix{third, third, third};
  original.traffic.mix_schedule = workload::MixSchedule(
      {{450.0, cellular::TrafficMix{third, third, third}}});
  original.traffic.fixed_speed_kmh = 100.0 / 3.0;

  const ScenarioConfig parsed =
      scenario_from_string(scenario_to_string(original));
  EXPECT_EQ(parsed.traffic.arrival.diurnal_phase_rad,
            original.traffic.arrival.diurnal_phase_rad);
  EXPECT_EQ(parsed.traffic.mix.text, third);
  EXPECT_EQ(parsed.traffic.mix_schedule, original.traffic.mix_schedule);
  ASSERT_TRUE(parsed.traffic.fixed_speed_kmh.has_value());
  EXPECT_EQ(*parsed.traffic.fixed_speed_kmh, 100.0 / 3.0);
}

TEST(ConfigIo, MalformedMixScheduleIsAnError) {
  EXPECT_THROW(scenario_from_string("traffic.mix_schedule = 0:0.7/0.2\n"),
               ParseError);
  // Segment mixes must individually sum to 1.
  EXPECT_THROW(
      scenario_from_string("traffic.mix_schedule = 0:0.9/0.9/0.9\n"),
      ParseError);
}

TEST(ConfigIo, ValidateRefusesNonFiniteFieldsSetInCode) {
  // A config built in code skips the parsers, so validate() itself must
  // refuse NaN and infinity in every double field, including fields the
  // selected arrival / spatial kind ignores.
  using Set = void (*)(ScenarioConfig&, double);
#define FIELD(f) {#f, [](ScenarioConfig& s, double v) { s.f = v; }}
  const std::pair<const char*, Set> scenario_fields[] = {
      FIELD(cell_radius_m), FIELD(capacity_bu), FIELD(mobility_update_s),
      FIELD(horizon_s), FIELD(mobility.base_sigma_deg),
      FIELD(mobility.reference_kmh), FIELD(mobility.update_interval_s),
      FIELD(mobility.min_speed_kmh), FIELD(mobility.max_speed_kmh),
      FIELD(mobility.speed_sigma_kmh), FIELD(predictor.base_sigma_deg),
      FIELD(predictor.reference_kmh), FIELD(multicell.epoch_s),
      FIELD(multicell.entry_fraction), FIELD(traffic.arrival_window_s),
      FIELD(traffic.mean_holding_s), FIELD(traffic.min_speed_kmh),
      FIELD(traffic.max_speed_kmh), FIELD(traffic.fixed_speed_kmh),
      FIELD(traffic.fixed_angle_deg), FIELD(traffic.priority_low),
      FIELD(traffic.priority_normal), FIELD(traffic.priority_high),
      FIELD(traffic.mix.text), FIELD(traffic.mix.voice),
      FIELD(traffic.mix.video), FIELD(traffic.arrival.on_rate),
      FIELD(traffic.arrival.off_rate), FIELD(traffic.arrival.mean_on_s),
      FIELD(traffic.arrival.mean_off_s),
      FIELD(traffic.arrival.diurnal_amplitude),
      FIELD(traffic.arrival.diurnal_period_s),
      FIELD(traffic.arrival.diurnal_phase_rad),
      FIELD(traffic.arrival.flash_fraction),
      FIELD(traffic.arrival.flash_start_s),
      FIELD(traffic.arrival.flash_duration_s),
      FIELD(spatial.hotspot_decay), FIELD(spatial.highway_halfwidth_m),
      FIELD(spatial.highway_off_weight),
      {"mix_schedule start",
       [](ScenarioConfig& s, double v) {
         s.traffic.mix_schedule =
             workload::MixSchedule({workload::MixSegment{v, {}}});
       }},
      {"mix_schedule text",
       [](ScenarioConfig& s, double v) {
         s.traffic.mix_schedule = workload::MixSchedule(
             {workload::MixSegment{0.0, {v, 0.2, 0.1}}});
       }},
  };
#undef FIELD
  using SetServer = void (*)(serve::ServerConfig&, double);
  const std::pair<const char*, SetServer> server_fields[] = {
      {"handoff_fraction",
       [](serve::ServerConfig& c, double v) { c.handoff_fraction = v; }},
      {"batch_window_s",
       [](serve::ServerConfig& c, double v) { c.batch_window_s = v; }},
  };
  using SetNet = void (*)(net::NetConfig&, double);
  const std::pair<const char*, SetNet> net_fields[] = {
      {"max_skew_s", [](net::NetConfig& c, double v) { c.max_skew_s = v; }},
      {"read_timeout_s",
       [](net::NetConfig& c, double v) { c.read_timeout_s = v; }},
      {"write_timeout_s",
       [](net::NetConfig& c, double v) { c.write_timeout_s = v; }},
      {"idle_timeout_s",
       [](net::NetConfig& c, double v) { c.idle_timeout_s = v; }},
      {"flush_idle_s", [](net::NetConfig& c, double v) { c.flush_idle_s = v; }},
  };

  ASSERT_NO_THROW(ScenarioConfig{}.validate());
  ASSERT_NO_THROW(serve::ServerConfig{}.validate(true));
  ASSERT_NO_THROW(net::NetConfig{}.validate());
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    for (const auto& [name, set] : scenario_fields) {
      ScenarioConfig s;
      set(s, v);
      EXPECT_THROW(s.validate(), ConfigError) << name << " = " << v;
    }
    for (const auto& [name, set] : server_fields) {
      serve::ServerConfig c;
      set(c, v);
      EXPECT_THROW(c.validate(true), ConfigError) << name << " = " << v;
    }
    for (const auto& [name, set] : net_fields) {
      net::NetConfig c;
      set(c, v);
      EXPECT_THROW(c.validate(), ConfigError) << name << " = " << v;
    }
  }
}

TEST(ConfigIo, NonFiniteNumbersAreRefused) {
  // nan and inf parse as doubles but pass every `x <= 0` style check in
  // validate(); the parsers refuse them instead (found by ConfigFuzz).
  for (const char* v : {"nan", "-nan", "inf", "-inf", "infinity"}) {
    const std::string value = v;
    for (const char* key : {"capacity_bu", "horizon_s",
                            "traffic.arrival.diurnal_phase_rad",
                            "traffic.fixed_speed_kmh"})
      EXPECT_THROW(scenario_from_string(std::string(key) + " = " + value),
                   ParseError)
          << key << " = " << value;
    EXPECT_THROW(
        scenario_from_string("traffic.mix_schedule = " + value +
                             ":0.7/0.2/0.1\n"),
        ParseError)
        << value;
    EXPECT_THROW(scenario_from_string("traffic.mix_schedule = 0:0.7/" +
                                      value + "/0.1\n"),
                 ParseError)
        << value;
    EXPECT_THROW(parse_double(value, "--rate"), ConfigError) << value;
  }
  EXPECT_THROW(
      scenario_from_string("traffic.mix_schedule = 1e999:0.7/0.2/0.1\n"),
      ParseError);
}

TEST(ConfigIo, ScenarioKeysEnumerateTheWholeRegistry) {
  // scenario_keys() is the sweep layer's and `--list-keys`' view of the
  // field registry: every key must round-trip through apply_scenario_key
  // with the value save_scenario prints for it.
  const std::vector<std::string> keys = scenario_keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const std::string dump = scenario_to_string(ScenarioConfig{});
  ScenarioConfig rebuilt;
  for (const std::string& key : keys) {
    const std::size_t at = dump.find('\n' + key + " = ");
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + key.size() + 4;
    const std::string value =
        dump.substr(begin, dump.find('\n', begin) - begin);
    EXPECT_NO_THROW(apply_scenario_key(rebuilt, key, value)) << key;
  }
  EXPECT_EQ(scenario_to_string(rebuilt), dump);
  for (const char* key : {"no.such.key", "sim.epoch_adaptive",
                          "sim.epoch_min_s", "sim.epoch_max_s"})
    EXPECT_THROW(apply_scenario_key(rebuilt, key, "1"), ConfigError) << key;
}

// --- deterministic fuzzer ---------------------------------------------------

struct Lcg {
  std::uint64_t s;
  std::size_t below(std::size_t n) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((s >> 33) % n);
  }
};

/// Splits `text` into lines (without their '\n').
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines = split_fields(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

/// Key and value of a `key = value` line (empty for a comment or a line
/// without " = ").
std::pair<std::string, std::string> key_value(const std::string& line) {
  const std::size_t eq = line.find(" = ");
  if (eq == std::string::npos || line.front() == '#') return {};
  return {line.substr(0, eq), line.substr(eq + 3)};
}

/// [begin, end) of each number in `value`: a maximal run of digits, signs,
/// points and exponent marks holding at least one digit.
std::vector<std::pair<std::size_t, std::size_t>> number_runs(
    const std::string& value) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  std::size_t i = 0;
  while (i < value.size()) {
    const std::size_t begin = value.find_first_of("0123456789.eE+-", i);
    if (begin == std::string::npos) break;
    std::size_t end = value.find_first_not_of("0123456789.eE+-", begin);
    if (end == std::string::npos) end = value.size();
    if (value.find_first_of("0123456789", begin) < end)
      runs.emplace_back(begin, end);
    i = end;
  }
  return runs;
}

TEST(ConfigFuzz, MutatedScenariosLoadValidOrThrowLibraryErrors) {
  // The dumped text of every catalog scenario, mutated line-wise: dropped,
  // duplicated or equals-less lines, truncated values, swapped keys and
  // special values.  Every case is either refused with the library's own
  // ParseError/ConfigError, or loads a config that passes validate(), holds
  // only finite numbers and round-trips byte for byte.
  std::vector<std::vector<std::string>> bases;
  for (const auto& entry : workload::ScenarioCatalog::instance().entries())
    bases.push_back(lines_of(scenario_to_string(entry.build())));
  ASSERT_GE(bases.size(), 10u);
  const char* const specials[] = {"nan", "-nan", "inf",  "-inf", "1e999",
                                  "-1e999", "-1", "",   "0",    "1e-999"};
  constexpr std::size_t kNonFinite = 6;  // specials[0..6) never load
  Lcg rng{2026};
  int loaded = 0, parse_errors = 0, config_errors = 0, non_finite_refused = 0;
  for (int i = 0; i < 6000; ++i) {
    std::vector<std::string> lines = bases[rng.below(bases.size())];
    const std::size_t mutations = 1 + rng.below(3);
    bool must_reject = false;
    for (std::size_t m = 0; m < mutations && !lines.empty(); ++m) {
      const std::size_t at = rng.below(lines.size());
      auto [key, value] = key_value(lines[at]);
      switch (rng.below(6)) {
        case 0:  // drop a line
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        case 1:  // duplicate a line somewhere later
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                           at + rng.below(lines.size() - at) +
                                           1),
                       lines[at]);
          break;
        case 2:  // truncate a value
          if (!key.empty())
            lines[at] = key + " = " + value.substr(0, rng.below(value.size() + 1));
          break;
        case 3: {  // swap the keys of two lines
          const std::size_t other = rng.below(lines.size());
          auto [key2, value2] = key_value(lines[other]);
          if (key.empty() || key2.empty()) break;
          lines[at] = key2 + " = " + value;
          lines[other] = key + " = " + value2;
          break;
        }
        case 4: {  // a special value, for the value or one number in it
          if (key.empty()) break;
          const std::size_t pick = rng.below(std::size(specials));
          const auto runs = number_runs(value);
          if (runs.empty() || rng.below(2) == 0) {
            value = specials[pick];
          } else {  // e.g. one share of a mix schedule
            const auto [begin, end] = runs[rng.below(runs.size())];
            value.replace(begin, end - begin, specials[pick]);
          }
          lines[at] = key + " = " + value;
          must_reject = must_reject || (pick < kNonFinite && mutations == 1);
          break;
        }
        default:  // remove the '='
          if (!key.empty()) lines[at] = key + "  " + value;
          break;
      }
    }
    std::string text;
    for (const std::string& line : lines) text += line + '\n';
    try {
      const ScenarioConfig config = scenario_from_string(text);
      EXPECT_NO_THROW(config.validate()) << "case " << i;
      const std::string dump = scenario_to_string(config);
      EXPECT_EQ(scenario_to_string(scenario_from_string(dump)), dump)
          << "case " << i;
      for (const std::string& line : lines_of(dump)) {
        const std::string value = key_value(line).second;
        EXPECT_EQ(value.find("nan"), std::string::npos)
            << "case " << i << ": " << line;
        EXPECT_EQ(value.find("inf"), std::string::npos)
            << "case " << i << ": " << line;
      }
      EXPECT_FALSE(must_reject) << "case " << i << " accepted:\n" << text;
      ++loaded;
    } catch (const ParseError&) {
      ++parse_errors;
      if (must_reject) ++non_finite_refused;
    } catch (const ConfigError&) {
      ++config_errors;
      if (must_reject) ++non_finite_refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << ": " << e.what() << "\n" << text;
    }
  }
  // Every outcome is exercised, not just one.
  EXPECT_GT(loaded, 500);
  EXPECT_GT(parse_errors, 500);
  EXPECT_GT(config_errors, 50);
  EXPECT_GT(non_finite_refused, 100);
}

// --- FlagReader / run_cli ---------------------------------------------------

/// Owns argv storage for a FlagReader under test.
struct Argv {
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

std::string what_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "(no throw)";
}

TEST(FlagReader, WalksFlagsAndValuesFromFirst) {
  Argv a({"prog", "trace", "--out", "x.csv", "--seed", "7", "--quiet"});
  FlagReader flags(a.argc(), a.argv(), 2);
  ASSERT_TRUE(flags.next());
  EXPECT_TRUE(flags.is("--out"));
  EXPECT_EQ(flags.value(), "x.csv");
  ASSERT_TRUE(flags.next());
  EXPECT_TRUE(flags.is("--seed"));
  EXPECT_EQ(flags.u64_value(), 7u);
  ASSERT_TRUE(flags.next());
  EXPECT_EQ(flags.arg(), "--quiet");
  EXPECT_FALSE(flags.next());
}

TEST(FlagReader, LastFlagWithoutValueNeedsAValue) {
  Argv a({"prog", "--n"});
  FlagReader flags(a.argc(), a.argv());
  ASSERT_TRUE(flags.next());
  EXPECT_EQ(what_of([&] { flags.int_value(); }), "--n needs a value");
}

TEST(FlagReader, NumbersAreStrictUnderTheFlagName) {
  Argv a({"prog", "--n", "5x", "--timeout", "1.5s", "--pending-cap", "-1",
          "--reps", "-3"});
  FlagReader flags(a.argc(), a.argv());
  ASSERT_TRUE(flags.next());
  EXPECT_EQ(what_of([&] { flags.int_value(); }), "bad --n '5x'");
  ASSERT_TRUE(flags.next());
  EXPECT_EQ(what_of([&] { flags.double_value(); }), "bad --timeout '1.5s'");
  ASSERT_TRUE(flags.next());
  EXPECT_EQ(what_of([&] { flags.u64_value(); }), "bad --pending-cap '-1'");
  // A value that looks like a flag is still the value.
  ASSERT_TRUE(flags.next());
  EXPECT_EQ(flags.int_value(), -3);
}

TEST(FlagReader, UnknownFlagThrowsUnknownFlag) {
  Argv a({"prog", "--no-such-flag"});
  FlagReader flags(a.argc(), a.argv());
  ASSERT_TRUE(flags.next());
  try {
    flags.unknown();
    FAIL() << "expected UnknownFlag";
  } catch (const UnknownFlag& e) {
    EXPECT_STREQ(e.what(), "unknown flag '--no-such-flag'");
  }
}

TEST(FlagReader, DashDigitIsAPositionalNotAFlag) {
  // scenario_runner's positional tail may start with a negative number.
  Argv a({"prog", "-5", "-0.5", "-", "--n", "-x", "facs-p"});
  FlagReader flags(a.argc(), a.argv());
  std::vector<bool> is_flag;
  while (flags.next()) is_flag.push_back(flags.is_flag());
  EXPECT_EQ(is_flag,
            (std::vector<bool>{false, false, false, true, true, false}));
}

int usage_calls = 0;
int count_usage(const char*, std::FILE*) {
  ++usage_calls;
  return 2;
}

TEST(RunCli, MapsUnknownFlagToTwoAndOtherErrorsToOne) {
  Argv a({"prog"});
  usage_calls = 0;
  EXPECT_EQ(run_cli(a.argc(), a.argv(), [](int, char**) { return 0; },
                    count_usage),
            0);
  EXPECT_EQ(run_cli(a.argc(), a.argv(),
                    [](int, char**) -> int { throw UnknownFlag("--x"); },
                    count_usage),
            2);
  EXPECT_EQ(usage_calls, 1);
  EXPECT_EQ(run_cli(a.argc(), a.argv(),
                    [](int, char**) -> int { throw ConfigError("bad"); },
                    count_usage),
            1);
  EXPECT_EQ(usage_calls, 1);
}

}  // namespace
}  // namespace facsp::core
