#include "core/report.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/expects.h"
#include "common/file_io.h"
#include "core/config_io.h"

namespace facsp::core {

namespace {

/// The fixed metric block shared by the CSV and JSON writers: name +
/// accessor, in the documented column order.
struct MetricColumn {
  const char* name;
  const sim::SummaryStats ResultRow::* stats;
};

constexpr MetricColumn kMetricColumns[] = {
    {"acceptance_pct", &ResultRow::acceptance_percent},
    {"blocking_pct", &ResultRow::blocking_percent},
    {"dropping_pct", &ResultRow::dropping_percent},
    {"utilization_pct", &ResultRow::utilization_percent},
    {"completion_pct", &ResultRow::completion_percent},
};

std::string json_escape(const std::string& s) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The CSV format is unquoted, so a separator inside a coordinate would
/// silently shift every following column.  Axis labels come from catalog /
/// registry names and config values, none of which contain commas — but an
/// API-built spec could, so fail loudly instead of writing a ragged file.
void expect_csv_safe(const std::string& value) {
  if (value.find_first_of(",\n\r") != std::string::npos)
    throw Error("result csv: value '" + value +
                "' contains a comma or line break; rename the axis value");
}

}  // namespace

std::optional<double> crossover_x(const sim::Series& a, const sim::Series& b) {
  FACSP_EXPECTS(a.size() > 0);
  FACSP_EXPECTS(b.size() > 0);
  bool was_above = false;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double x = b.x(i);
    if (x < a.min_x()) continue;  // a's step function is undefined here
    const double ya = a.y_at(x);
    const double yb = b.y(i);
    if (ya >= yb) {
      was_above = true;
    } else if (was_above) {
      return x;
    }
  }
  return std::nullopt;
}

bool is_non_increasing(const sim::Series& s, double slack) {
  for (std::size_t i = 1; i < s.size(); ++i)
    if (s.y(i) > s.y(i - 1) + slack) return false;
  return true;
}

bool ordered_at(const std::vector<const sim::Series*>& series, double x_probe,
                double slack) {
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i]->y_at(x_probe) + slack < series[i - 1]->y_at(x_probe))
      return false;
  }
  return true;
}

sim::Series metric_series(const ResultTable& table,
                          const sim::SummaryStats ResultRow::* metric,
                          std::string name) {
  sim::Series s(std::move(name));
  for (const ResultRow& row : table.rows) {
    const sim::SummaryStats& st = row.*metric;
    s.add(row.n, st.mean(), st.ci_half_width(table.ci_level));
  }
  return s;
}

void write_csv(const sim::Figure& figure, const std::string& path) {
  write_file(path, [&](std::ostream& os) { figure.print_csv(os); });
}

void write_result_csv(const ResultTable& table, std::ostream& os) {
  for (const std::string& axis : table.axes) {
    expect_csv_safe(axis);
    os << axis << ',';
  }
  os << "replications";
  for (const MetricColumn& col : kMetricColumns)
    os << ',' << col.name << "_mean," << col.name << "_ci";
  os << '\n';
  for (const ResultRow& row : table.rows) {
    FACSP_EXPECTS(row.coords.size() == table.axes.size());
    for (const std::string& coord : row.coords) {
      expect_csv_safe(coord);
      os << coord << ',';
    }
    os << table.replications;
    for (const MetricColumn& col : kMetricColumns) {
      const sim::SummaryStats& st = row.*(col.stats);
      os << ',' << format_double(st.mean()) << ','
         << format_double(st.ci_half_width(table.ci_level));
    }
    os << '\n';
  }
}

void write_result_csv(const ResultTable& table, const std::string& path) {
  write_file(path, [&](std::ostream& os) { write_result_csv(table, os); });
}

std::string result_csv_string(const ResultTable& table) {
  std::ostringstream os;
  write_result_csv(table, os);
  return os.str();
}

void write_result_json(const ResultTable& table, std::ostream& os) {
  os << "{\n  \"replications\": " << table.replications
     << ",\n  \"ci_level\": " << format_double(table.ci_level)
     << ",\n  \"axes\": [";
  for (std::size_t i = 0; i < table.axes.size(); ++i)
    os << (i != 0 ? ", " : "") << '"' << json_escape(table.axes[i]) << '"';
  os << "],\n  \"rows\": [";
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const ResultRow& row = table.rows[i];
    FACSP_EXPECTS(row.coords.size() == table.axes.size());
    os << (i != 0 ? "," : "") << "\n    {\"coords\": {";
    for (std::size_t a = 0; a < table.axes.size(); ++a)
      os << (a != 0 ? ", " : "") << '"' << json_escape(table.axes[a])
         << "\": \"" << json_escape(row.coords[a]) << '"';
    os << "}, \"n\": " << row.n << ", \"metrics\": {";
    bool first = true;
    for (const MetricColumn& col : kMetricColumns) {
      const sim::SummaryStats& st = row.*(col.stats);
      os << (first ? "" : ", ") << '"' << col.name << "\": {\"mean\": "
         << format_double(st.mean())
         << ", \"ci\": " << format_double(st.ci_half_width(table.ci_level))
         << ", \"stddev\": " << format_double(st.stddev())
         << ", \"min\": " << format_double(st.min())
         << ", \"max\": " << format_double(st.max()) << '}';
      first = false;
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
}

void write_result_json(const ResultTable& table, const std::string& path) {
  write_file(path,
                [&](std::ostream& os) { write_result_json(table, os); });
}

std::string result_json_string(const ResultTable& table) {
  std::ostringstream os;
  write_result_json(table, os);
  return os.str();
}

CsvTable read_csv(std::istream& is) {
  CsvTable table;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (table.columns.empty()) {
      table.columns = split_fields(line, ',');
      continue;
    }
    auto cells = split_fields(line, ',');
    if (cells.size() != table.columns.size())
      throw ParseError("csv: expected " + std::to_string(table.columns.size()) +
                           " cells, got " + std::to_string(cells.size()),
                       lineno);
    table.rows.push_back(std::move(cells));
  }
  return table;
}

void print_shape_checks(std::ostream& os,
                        const std::vector<ShapeCheck>& checks) {
  os << "-- shape checks (paper-vs-measured) --\n";
  for (const auto& c : checks) {
    os << (c.passed ? "  [PASS] " : "  [FAIL] ") << c.description;
    if (!c.details.empty()) os << "  (" << c.details << ')';
    os << '\n';
  }
}

}  // namespace facsp::core
