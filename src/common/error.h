// Exception hierarchy for the FACS-P library.
//
// All library errors derive from facsp::Error so applications can catch one
// type at the boundary.  Construction-time validation failures (bad membership
// function geometry, malformed rule bases, inconsistent scenario parameters)
// throw ConfigError; violated API contracts throw ContractViolation.
#pragma once

#include <initializer_list>
#include <stdexcept>
#include <string>

namespace facsp {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid configuration detected while constructing a component
/// (e.g. non-monotonic trapezoid breakpoints, duplicate linguistic terms).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// A precondition/postcondition of a library API was violated by the caller.
class ContractViolation : public Error {
 public:
  explicit ContractViolation(const std::string& what) : Error(what) {}
};

/// Error while parsing a textual artifact (fuzzy rule file, scenario file).
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line)
      : Error(what + " (line " + std::to_string(line) + ")"), line_(line) {}
  explicit ParseError(const std::string& what) : Error(what), line_(-1) {}

  /// 1-based line number of the offending input, or -1 if unknown.
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Throws ConfigError("<what>: numbers must be finite") unless every value
/// is finite.  Every config validate() calls it before its range checks,
/// which NaN would pass (NaN <= 0.0 is false) and infinity could.
void require_finite(const char* what, std::initializer_list<double> values);

}  // namespace facsp
