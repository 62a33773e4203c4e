// Reporting helpers: figure CSV emission, structured sweep-result writers
// (CSV + JSON), crossover detection and the qualitative "shape checks" that
// EXPERIMENTS.md records for each figure.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "sim/timeseries.h"

namespace facsp::core {

/// One qualitative expectation derived from the paper (e.g. "FACS-P above
/// FACS for small N, below for large N").
struct ShapeCheck {
  std::string description;
  bool passed = false;
  std::string details;
};

/// First x at which series `a` stops being >= series `b` (comparing at b's
/// x grid, stepwise).  nullopt when no crossover happens.
std::optional<double> crossover_x(const sim::Series& a, const sim::Series& b);

/// True when the series is non-increasing in y along x within `slack`.
bool is_non_increasing(const sim::Series& s, double slack = 1e-9);

/// True when y values at `x_probe` are ordered s[0] <= s[1] <= ... within
/// `slack` (used for "higher speed => higher acceptance" checks).
bool ordered_at(const std::vector<const sim::Series*>& series, double x_probe,
                double slack = 0.0);

/// One metric column of a sweep as a figure series named `name`: one point
/// per row, x = row.n, y = the metric's mean, ci = its half-width at the
/// table's ci_level.  Meant for tables whose rows differ only in N (a
/// one-policy N sweep).
sim::Series metric_series(const ResultTable& table,
                          const sim::SummaryStats ResultRow::* metric,
                          std::string name);

/// Write a figure's CSV next to the bench output.  Throws facsp::Error on
/// I/O failure.
void write_csv(const sim::Figure& figure, const std::string& path);

// --- structured sweep results ----------------------------------------------
//
// ResultTable writers with a stable, machine-consumable schema (documented
// in docs/experiments.md).  CSV columns, in order:
//
//   <one column per axis, header = axis name> , replications ,
//   acceptance_pct_mean , acceptance_pct_ci ,
//   blocking_pct_mean   , blocking_pct_ci   ,
//   dropping_pct_mean   , dropping_pct_ci   ,
//   utilization_pct_mean, utilization_pct_ci,
//   completion_pct_mean , completion_pct_ci
//
// Rows keep the table's row-major axis order; the ci columns are the
// half-width at the table's ci_level.  Every double is printed with the
// shortest-round-trip formatter (config_io's format_double), so output is
// locale-independent, re-parses to exactly the same double, and two tables
// with bit-identical contents serialise to byte-identical files — which is
// what CI diffs across thread counts.

/// Serialise the table as CSV.  Throws facsp::Error on I/O failure.
void write_result_csv(const ResultTable& table, std::ostream& os);
void write_result_csv(const ResultTable& table, const std::string& path);
std::string result_csv_string(const ResultTable& table);

/// Serialise the table as JSON: {"replications", "ci_level", "axes": [...],
/// "rows": [{"coords": {axis: label, ...}, "n", "metrics": {name: {"mean",
/// "ci", "stddev", "min", "max"}, ...}}]}.  Same double formatting and
/// ordering guarantees as the CSV writer.
void write_result_json(const ResultTable& table, std::ostream& os);
void write_result_json(const ResultTable& table, const std::string& path);
std::string result_json_string(const ResultTable& table);

/// Minimal reader for the CSV files write_result_csv produces (one header
/// line, comma-separated, no quoting — the writer rejects values containing
/// commas or newlines, so files are never ragged).  Throws
/// facsp::ParseError on ragged rows.
struct CsvTable {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;  ///< cells as raw strings
};
CsvTable read_csv(std::istream& is);

/// Render shape checks as a PASS/FAIL block.
void print_shape_checks(std::ostream& os,
                        const std::vector<ShapeCheck>& checks);

}  // namespace facsp::core
