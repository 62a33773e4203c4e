// Scenario (de)serialization: a flat, commented key=value format so
// experiments are shareable as plain files.
//
//   # paper baseline, heavier video share
//   seed = 7
//   cell_radius_m = 2000
//   traffic.mix.video = 0.2
//   traffic.mix.text = 0.6
//
// Unknown keys are an error (typos must not silently revert to defaults).
#pragma once

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/scenario.h"

namespace facsp::core {

/// Shortest decimal that parses back to exactly the same double
/// (std::to_chars: locale-independent, round-trip exact).  The one printer
/// every dumped config and result file goes through, so emitted numbers can
/// be compared byte-for-byte and re-parsed without precision loss.
std::string format_double(double v);

/// Strict number parsers for command-line flags: the whole of `v` must be
/// one number, and a finite one (parse_u64 also refuses a sign).  Throw facsp::ConfigError
/// "bad <what> '<v>'", so the message names the flag.
int parse_int(const std::string& v, const char* what);
double parse_double(const std::string& v, const char* what);
std::uint64_t parse_u64(const std::string& v, const char* what);

/// An argument that reads as a flag but that no CLI knows.  run_cli reports
/// it as "error: unknown flag '<x>'", then the usage, and exits 2.
class UnknownFlag : public ConfigError {
 public:
  explicit UnknownFlag(const std::string& flag)
      : ConfigError("unknown flag '" + flag + "'") {}
};

/// The command-line reader every CLI shares.  next() advances to the next
/// argument of argv (from `first`); arg() is its text.  value() consumes
/// the argument after the current flag as its value, or throws ConfigError
/// "<flag> needs a value"; the typed readers parse that value strictly
/// under the flag's name ("bad <flag> '<v>'").
class FlagReader {
 public:
  FlagReader(int argc, char** argv, int first = 1)
      : argc_(argc), argv_(argv), next_(first) {}

  bool next();
  const std::string& arg() const { return arg_; }
  bool is(const char* flag) const { return arg_ == flag; }
  /// '-' followed by a non-digit: "-5" and "-" read as positionals.
  bool is_flag() const;

  std::string value();
  int int_value() { return parse_int(value(), arg_.c_str()); }
  double double_value() { return parse_double(value(), arg_.c_str()); }
  std::uint64_t u64_value() { return parse_u64(value(), arg_.c_str()); }

  [[noreturn]] void unknown() const { throw UnknownFlag(arg_); }

 private:
  int argc_;
  char** argv_;
  int next_;
  std::string arg_;
};

/// The body of every CLI's main(): returns run(argc, argv).  An UnknownFlag
/// prints "error: <what>", a blank line and usage(argv[0], stderr), then
/// exits 2; any other exception prints "error: <what>" and exits 1.
int run_cli(int argc, char** argv, int (*run)(int, char**),
            int (*usage)(const char* argv0, std::FILE* dst));

/// Split on a single-character delimiter, keeping empty tokens
/// ("a,,b" -> {"a", "", "b"}; "" -> {""}).  The one splitter behind CSV
/// parsing and every comma-list CLI flag.
std::vector<std::string> split_fields(const std::string& s, char delim);

/// Render the full scenario as key=value lines (every field, commented).
void save_scenario(const ScenarioConfig& scenario, std::ostream& os);
std::string scenario_to_string(const ScenarioConfig& scenario);

/// Apply a single `key = value` assignment to an existing scenario, using
/// the same field registry as load_scenario (so anything a config file can
/// set, a sweep axis can set too).  Does not re-validate; callers mutate
/// several keys and then validate once.  Throws facsp::ConfigError on an
/// unknown key or an unparsable value.
void apply_scenario_key(ScenarioConfig& scenario, const std::string& key,
                        const std::string& value);

/// Every key apply_scenario_key/load_scenario accepts, sorted.
std::vector<std::string> scenario_keys();

/// Parse key=value lines over a default-constructed scenario.  '#' starts
/// a comment; blank lines are skipped.  Throws facsp::ParseError with a
/// line number on syntax errors or unknown keys, facsp::ConfigError when
/// the resulting scenario fails validation.
ScenarioConfig load_scenario(std::istream& is);
ScenarioConfig scenario_from_string(const std::string& text);

/// File convenience wrappers (throw facsp::Error on I/O failure).
void save_scenario_file(const ScenarioConfig& scenario,
                        const std::string& path);
ScenarioConfig load_scenario_file(const std::string& path);

}  // namespace facsp::core
