#include "core/config_io.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/file_io.h"

namespace facsp::core {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Field registry: one entry per serialisable scenario field, with a
/// printer and a parser, so save and load can never drift apart.
struct Field {
  std::function<std::string(const ScenarioConfig&)> print;
  std::function<void(ScenarioConfig&, const std::string&)> parse;
};

// Strict parsers: the whole string must be one finite number.  They throw
// the std exceptions whose what() the config-file error messages quote.
double strict_double(const std::string& v) {
  std::size_t used = 0;
  const double x = std::stod(v, &used);
  if (used != v.size()) throw std::invalid_argument("trailing characters");
  if (!std::isfinite(x)) throw std::invalid_argument("not finite");
  return x;
}

int strict_int(const std::string& v) {
  std::size_t used = 0;
  const int x = std::stoi(v, &used);
  if (used != v.size()) throw std::invalid_argument("trailing characters");
  return x;
}

std::uint64_t strict_u64(const std::string& v) {
  // stoull silently wraps "-1"; a seed typo must not silently reproduce
  // the wrong cell.
  if (v.empty() || v[0] == '-') throw std::invalid_argument("negative");
  std::size_t used = 0;
  const std::uint64_t x = std::stoull(v, &used);
  if (used != v.size()) throw std::invalid_argument("trailing characters");
  return x;
}

/// A strict parse that reports a bad value by the flag it came from.
template <class Parse>
auto named(const std::string& v, const char* what, Parse parse) {
  try {
    return parse(v);
  } catch (const std::exception&) {
    throw ConfigError(std::string("bad ") + what + " '" + v + "'");
  }
}

bool parse_bool(const std::string& v) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw std::invalid_argument("expected true/false");
}

const std::map<std::string, Field>& registry() {
  static const std::map<std::string, Field> kFields = [] {
    std::map<std::string, Field> f;
    auto add_double = [&f](const std::string& key, auto getter, auto setter) {
      f[key] = Field{
          [getter](const ScenarioConfig& s) { return format_double(getter(s)); },
          [setter](ScenarioConfig& s, const std::string& v) {
            setter(s, strict_double(v));
          }};
    };

    f["seed"] = Field{
        [](const ScenarioConfig& s) { return std::to_string(s.seed); },
        [](ScenarioConfig& s, const std::string& v) {
          s.seed = strict_u64(v);
        }};
    f["rings"] = Field{
        [](const ScenarioConfig& s) { return std::to_string(s.rings); },
        [](ScenarioConfig& s, const std::string& v) {
          s.rings = strict_int(v);
        }};
    add_double(
        "cell_radius_m", [](const ScenarioConfig& s) { return s.cell_radius_m; },
        [](ScenarioConfig& s, double v) { s.cell_radius_m = v; });
    add_double(
        "capacity_bu", [](const ScenarioConfig& s) { return s.capacity_bu; },
        [](ScenarioConfig& s, double v) { s.capacity_bu = v; });
    // spatial.*  (polymorphic: the kind selects which knobs apply)
    f["spatial.kind"] = Field{
        [](const ScenarioConfig& s) {
          return std::string(workload::spatial_kind_name(s.spatial.kind));
        },
        [](ScenarioConfig& s, const std::string& v) {
          s.spatial.kind = workload::spatial_kind_from_name(v);
        }};
    add_double(
        "spatial.hotspot_decay",
        [](const ScenarioConfig& s) { return s.spatial.hotspot_decay; },
        [](ScenarioConfig& s, double v) { s.spatial.hotspot_decay = v; });
    add_double(
        "spatial.highway_halfwidth_m",
        [](const ScenarioConfig& s) { return s.spatial.highway_halfwidth_m; },
        [](ScenarioConfig& s, double v) { s.spatial.highway_halfwidth_m = v; });
    add_double(
        "spatial.highway_off_weight",
        [](const ScenarioConfig& s) { return s.spatial.highway_off_weight; },
        [](ScenarioConfig& s, double v) { s.spatial.highway_off_weight = v; });
    // sim.*  (multi-cell sharding; see core/multicell.h)
    f["sim.cells"] = Field{
        [](const ScenarioConfig& s) {
          return std::to_string(s.multicell.cells);
        },
        [](ScenarioConfig& s, const std::string& v) {
          s.multicell.cells = strict_int(v);
        }};
    add_double(
        "sim.epoch_s",
        [](const ScenarioConfig& s) { return s.multicell.epoch_s; },
        [](ScenarioConfig& s, double v) { s.multicell.epoch_s = v; });
    f["sim.workload_cells"] = Field{
        [](const ScenarioConfig& s) {
          return std::to_string(s.multicell.workload_cells);
        },
        [](ScenarioConfig& s, const std::string& v) {
          s.multicell.workload_cells = strict_int(v);
        }};
    add_double(
        "sim.entry_fraction",
        [](const ScenarioConfig& s) { return s.multicell.entry_fraction; },
        [](ScenarioConfig& s, double v) { s.multicell.entry_fraction = v; });
    // Pure throughput knob (worker threads draining shards); results are
    // bit-identical for every value, so sharing configs across machines
    // with different values changes nothing but wall-clock.
    f["sim.threads"] = Field{
        [](const ScenarioConfig& s) {
          return std::to_string(s.multicell.threads);
        },
        [](ScenarioConfig& s, const std::string& v) {
          s.multicell.threads = strict_int(v);
        }};
    f["enable_mobility"] = Field{
        [](const ScenarioConfig& s) {
          return std::string(s.enable_mobility ? "true" : "false");
        },
        [](ScenarioConfig& s, const std::string& v) {
          s.enable_mobility = parse_bool(v);
        }};
    add_double(
        "mobility_update_s",
        [](const ScenarioConfig& s) { return s.mobility_update_s; },
        [](ScenarioConfig& s, double v) { s.mobility_update_s = v; });
    add_double(
        "horizon_s", [](const ScenarioConfig& s) { return s.horizon_s; },
        [](ScenarioConfig& s, double v) { s.horizon_s = v; });

    // traffic.*
    add_double(
        "traffic.arrival_window_s",
        [](const ScenarioConfig& s) { return s.traffic.arrival_window_s; },
        [](ScenarioConfig& s, double v) { s.traffic.arrival_window_s = v; });
    add_double(
        "traffic.mean_holding_s",
        [](const ScenarioConfig& s) { return s.traffic.mean_holding_s; },
        [](ScenarioConfig& s, double v) { s.traffic.mean_holding_s = v; });
    add_double(
        "traffic.mix.text",
        [](const ScenarioConfig& s) { return s.traffic.mix.text; },
        [](ScenarioConfig& s, double v) { s.traffic.mix.text = v; });
    add_double(
        "traffic.mix.voice",
        [](const ScenarioConfig& s) { return s.traffic.mix.voice; },
        [](ScenarioConfig& s, double v) { s.traffic.mix.voice = v; });
    add_double(
        "traffic.mix.video",
        [](const ScenarioConfig& s) { return s.traffic.mix.video; },
        [](ScenarioConfig& s, double v) { s.traffic.mix.video = v; });
    add_double(
        "traffic.min_speed_kmh",
        [](const ScenarioConfig& s) { return s.traffic.min_speed_kmh; },
        [](ScenarioConfig& s, double v) { s.traffic.min_speed_kmh = v; });
    add_double(
        "traffic.max_speed_kmh",
        [](const ScenarioConfig& s) { return s.traffic.max_speed_kmh; },
        [](ScenarioConfig& s, double v) { s.traffic.max_speed_kmh = v; });
    add_double(
        "traffic.priority_low",
        [](const ScenarioConfig& s) { return s.traffic.priority_low; },
        [](ScenarioConfig& s, double v) { s.traffic.priority_low = v; });
    add_double(
        "traffic.priority_normal",
        [](const ScenarioConfig& s) { return s.traffic.priority_normal; },
        [](ScenarioConfig& s, double v) { s.traffic.priority_normal = v; });
    add_double(
        "traffic.priority_high",
        [](const ScenarioConfig& s) { return s.traffic.priority_high; },
        [](ScenarioConfig& s, double v) { s.traffic.priority_high = v; });

    // traffic.arrival.*  (polymorphic: the kind selects which knobs apply)
    f["traffic.arrival.kind"] = Field{
        [](const ScenarioConfig& s) {
          return std::string(
              workload::arrival_kind_name(s.traffic.arrival.kind));
        },
        [](ScenarioConfig& s, const std::string& v) {
          s.traffic.arrival.kind = workload::arrival_kind_from_name(v);
        }};
    add_double(
        "traffic.arrival.on_rate",
        [](const ScenarioConfig& s) { return s.traffic.arrival.on_rate; },
        [](ScenarioConfig& s, double v) { s.traffic.arrival.on_rate = v; });
    add_double(
        "traffic.arrival.off_rate",
        [](const ScenarioConfig& s) { return s.traffic.arrival.off_rate; },
        [](ScenarioConfig& s, double v) { s.traffic.arrival.off_rate = v; });
    add_double(
        "traffic.arrival.mean_on_s",
        [](const ScenarioConfig& s) { return s.traffic.arrival.mean_on_s; },
        [](ScenarioConfig& s, double v) { s.traffic.arrival.mean_on_s = v; });
    add_double(
        "traffic.arrival.mean_off_s",
        [](const ScenarioConfig& s) { return s.traffic.arrival.mean_off_s; },
        [](ScenarioConfig& s, double v) { s.traffic.arrival.mean_off_s = v; });
    add_double(
        "traffic.arrival.diurnal_amplitude",
        [](const ScenarioConfig& s) {
          return s.traffic.arrival.diurnal_amplitude;
        },
        [](ScenarioConfig& s, double v) {
          s.traffic.arrival.diurnal_amplitude = v;
        });
    add_double(
        "traffic.arrival.diurnal_period_s",
        [](const ScenarioConfig& s) {
          return s.traffic.arrival.diurnal_period_s;
        },
        [](ScenarioConfig& s, double v) {
          s.traffic.arrival.diurnal_period_s = v;
        });
    add_double(
        "traffic.arrival.diurnal_phase_rad",
        [](const ScenarioConfig& s) {
          return s.traffic.arrival.diurnal_phase_rad;
        },
        [](ScenarioConfig& s, double v) {
          s.traffic.arrival.diurnal_phase_rad = v;
        });
    add_double(
        "traffic.arrival.flash_fraction",
        [](const ScenarioConfig& s) {
          return s.traffic.arrival.flash_fraction;
        },
        [](ScenarioConfig& s, double v) {
          s.traffic.arrival.flash_fraction = v;
        });
    add_double(
        "traffic.arrival.flash_start_s",
        [](const ScenarioConfig& s) { return s.traffic.arrival.flash_start_s; },
        [](ScenarioConfig& s, double v) {
          s.traffic.arrival.flash_start_s = v;
        });
    add_double(
        "traffic.arrival.flash_duration_s",
        [](const ScenarioConfig& s) {
          return s.traffic.arrival.flash_duration_s;
        },
        [](ScenarioConfig& s, double v) {
          s.traffic.arrival.flash_duration_s = v;
        });

    // Time-varying mix: "none" or "start:text/voice/video;start:..."
    f["traffic.mix_schedule"] = Field{
        [](const ScenarioConfig& s) {
          return s.traffic.mix_schedule.to_string();
        },
        [](ScenarioConfig& s, const std::string& v) {
          s.traffic.mix_schedule = workload::MixSchedule::from_string(v);
        }};

    // Optional fields: "none" disables them.
    f["traffic.fixed_speed_kmh"] = Field{
        [](const ScenarioConfig& s) {
          return s.traffic.fixed_speed_kmh
                     ? format_double(*s.traffic.fixed_speed_kmh)
                     : std::string("none");
        },
        [](ScenarioConfig& s, const std::string& v) {
          if (v == "none")
            s.traffic.fixed_speed_kmh.reset();
          else
            s.traffic.fixed_speed_kmh = strict_double(v);
        }};
    f["traffic.fixed_angle_deg"] = Field{
        [](const ScenarioConfig& s) {
          return s.traffic.fixed_angle_deg
                     ? format_double(*s.traffic.fixed_angle_deg)
                     : std::string("none");
        },
        [](ScenarioConfig& s, const std::string& v) {
          if (v == "none")
            s.traffic.fixed_angle_deg.reset();
          else
            s.traffic.fixed_angle_deg = strict_double(v);
        }};

    // mobility.* / predictor.*
    add_double(
        "mobility.base_sigma_deg",
        [](const ScenarioConfig& s) { return s.mobility.base_sigma_deg; },
        [](ScenarioConfig& s, double v) { s.mobility.base_sigma_deg = v; });
    add_double(
        "mobility.reference_kmh",
        [](const ScenarioConfig& s) { return s.mobility.reference_kmh; },
        [](ScenarioConfig& s, double v) { s.mobility.reference_kmh = v; });
    add_double(
        "mobility.update_interval_s",
        [](const ScenarioConfig& s) { return s.mobility.update_interval_s; },
        [](ScenarioConfig& s, double v) { s.mobility.update_interval_s = v; });
    add_double(
        "mobility.speed_sigma_kmh",
        [](const ScenarioConfig& s) { return s.mobility.speed_sigma_kmh; },
        [](ScenarioConfig& s, double v) { s.mobility.speed_sigma_kmh = v; });
    add_double(
        "predictor.base_sigma_deg",
        [](const ScenarioConfig& s) { return s.predictor.base_sigma_deg; },
        [](ScenarioConfig& s, double v) { s.predictor.base_sigma_deg = v; });
    add_double(
        "predictor.reference_kmh",
        [](const ScenarioConfig& s) { return s.predictor.reference_kmh; },
        [](ScenarioConfig& s, double v) { s.predictor.reference_kmh = v; });
    return f;
  }();
  return kFields;
}

}  // namespace

int parse_int(const std::string& v, const char* what) {
  return named(v, what, strict_int);
}

double parse_double(const std::string& v, const char* what) {
  return named(v, what, strict_double);
}

std::uint64_t parse_u64(const std::string& v, const char* what) {
  return named(v, what, strict_u64);
}

bool FlagReader::next() {
  if (next_ >= argc_) return false;
  arg_ = argv_[next_++];
  return true;
}

bool FlagReader::is_flag() const {
  return arg_.size() >= 2 && arg_[0] == '-' &&
         !std::isdigit(static_cast<unsigned char>(arg_[1]));
}

std::string FlagReader::value() {
  if (next_ >= argc_) throw ConfigError(arg_ + " needs a value");
  return argv_[next_++];
}

int run_cli(int argc, char** argv, int (*run)(int, char**),
            int (*usage)(const char* argv0, std::FILE* dst)) {
  try {
    return run(argc, argv);
  } catch (const UnknownFlag& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    usage(argv[0], stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

std::string format_double(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

std::vector<std::string> split_fields(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = s.find(delim, pos);
    out.push_back(s.substr(pos, hit == std::string::npos ? hit : hit - pos));
    if (hit == std::string::npos) break;
    pos = hit + 1;
  }
  return out;
}

void apply_scenario_key(ScenarioConfig& scenario, const std::string& key,
                        const std::string& value) {
  const auto it = registry().find(key);
  if (it == registry().end())
    throw ConfigError("unknown scenario key '" + key +
                      "' (see --dump-default for the full list)");
  try {
    it->second.parse(scenario, value);
  } catch (const std::exception& e) {
    throw ConfigError("bad value '" + value + "' for scenario key '" + key +
                      "' (" + e.what() + ")");
  }
}

std::vector<std::string> scenario_keys() {
  std::vector<std::string> keys;
  keys.reserve(registry().size());
  for (const auto& [key, field] : registry()) keys.push_back(key);
  return keys;
}

void save_scenario(const ScenarioConfig& scenario, std::ostream& os) {
  os << "# facsp scenario (key = value; 'none' clears optional fields)\n";
  for (const auto& [key, field] : registry())
    os << key << " = " << field.print(scenario) << '\n';
}

std::string scenario_to_string(const ScenarioConfig& scenario) {
  std::ostringstream os;
  save_scenario(scenario, os);
  return os.str();
}

ScenarioConfig load_scenario(std::istream& is) {
  ScenarioConfig scenario;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos)
      throw ParseError("scenario: expected 'key = value', got '" + trimmed +
                           "'",
                       lineno);
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    const auto it = registry().find(key);
    if (it == registry().end())
      throw ParseError("scenario: unknown key '" + key + "'", lineno);
    try {
      it->second.parse(scenario, value);
    } catch (const std::exception& e) {
      throw ParseError("scenario: bad value '" + value + "' for '" + key +
                           "' (" + e.what() + ")",
                       lineno);
    }
  }
  scenario.validate();
  return scenario;
}

ScenarioConfig scenario_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_scenario(is);
}

void save_scenario_file(const ScenarioConfig& scenario,
                        const std::string& path) {
  write_file(path, [&](std::ostream& os) { save_scenario(scenario, os); });
}

ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open '" + path + "'");
  return load_scenario(is);
}

}  // namespace facsp::core
