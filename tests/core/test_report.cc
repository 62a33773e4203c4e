#include "core/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace facsp::core {
namespace {

sim::Series make_series(const std::string& name,
                        std::initializer_list<std::pair<double, double>> pts) {
  sim::Series s(name);
  for (const auto& [x, y] : pts) s.add(x, y);
  return s;
}

TEST(Crossover, DetectsFirstCrossing) {
  const auto a = make_series("a", {{10, 95}, {20, 90}, {30, 80}, {40, 60}});
  const auto b = make_series("b", {{10, 90}, {20, 88}, {30, 85}, {40, 82}});
  const auto x = crossover_x(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ(*x, 30.0);
}

TEST(Crossover, NoneWhenAlwaysAbove) {
  const auto a = make_series("a", {{10, 95}, {20, 94}});
  const auto b = make_series("b", {{10, 90}, {20, 89}});
  EXPECT_FALSE(crossover_x(a, b).has_value());
}

TEST(Crossover, NoneWhenAlwaysBelow) {
  const auto a = make_series("a", {{10, 80}, {20, 70}});
  const auto b = make_series("b", {{10, 90}, {20, 89}});
  EXPECT_FALSE(crossover_x(a, b).has_value());
}

TEST(Crossover, HandlesDifferentGrids) {
  const auto a = make_series("a", {{10, 95}, {30, 70}});
  const auto b = make_series("b", {{10, 90}, {20, 88}, {30, 85}});
  const auto x = crossover_x(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ(*x, 30.0);
}

TEST(NonIncreasing, DetectsMonotonicity) {
  EXPECT_TRUE(is_non_increasing(
      make_series("m", {{1, 100}, {2, 90}, {3, 90}, {4, 85}})));
  EXPECT_FALSE(is_non_increasing(
      make_series("m", {{1, 100}, {2, 90}, {3, 95}})));
  // Slack tolerates simulation noise.
  EXPECT_TRUE(is_non_increasing(
      make_series("m", {{1, 100}, {2, 90}, {3, 91}}), 2.0));
}

TEST(OrderedAt, ChecksSeriesOrderingAtProbe) {
  const auto s1 = make_series("4kmh", {{50, 40}});
  const auto s2 = make_series("30kmh", {{50, 60}});
  const auto s3 = make_series("60kmh", {{50, 80}});
  EXPECT_TRUE(ordered_at({&s1, &s2, &s3}, 50.0));
  EXPECT_FALSE(ordered_at({&s3, &s2, &s1}, 50.0));
  // Slack admits small inversions.
  const auto s2b = make_series("x", {{50, 59.5}});
  EXPECT_TRUE(ordered_at({&s2, &s2b, &s3}, 50.0, 1.0));
}

TEST(WriteCsv, RoundTripsThroughFile) {
  sim::Figure fig("t", "N", "pct");
  fig.add_series("a").add(1.0, 2.0);
  const std::string path = "/tmp/facsp_test_fig.csv";
  write_csv(fig, path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "N,a\n1,2\n");
  std::remove(path.c_str());
}

TEST(WriteCsv, BadPathThrows) {
  sim::Figure fig("t", "x", "y");
  EXPECT_THROW(write_csv(fig, "/nonexistent_dir_xyz/f.csv"), Error);
}

// --- ResultTable writers ---------------------------------------------------

// Two rows with deliberately awkward doubles (non-terminating binary
// fractions, many significant digits) so the shortest-round-trip guarantee
// is actually exercised.
ResultTable small_table() {
  ResultTable t;
  t.axes = {"policy", "n"};
  t.replications = 2;
  t.ci_level = 0.95;
  ResultRow a;
  a.coords = {"facs-p", "60"};
  a.n = 60;
  for (const double acc : {90.0, 85.5}) {
    a.acceptance_percent.add(acc);
    a.blocking_percent.add(100.0 - acc);
  }
  a.dropping_percent.add(0.1);
  a.dropping_percent.add(0.3);
  a.utilization_percent.add(11.835524683657104);
  a.utilization_percent.add(18.062061758336171);
  a.completion_percent.add(100.0);
  a.completion_percent.add(100.0);
  ResultRow b;
  b.coords = {"gc", "80"};
  b.n = 80;
  for (const double acc : {1.0 / 3.0, 2.0 / 3.0}) {
    b.acceptance_percent.add(acc);
    b.blocking_percent.add(100.0 - acc);
  }
  b.dropping_percent.add(0.0);
  b.dropping_percent.add(0.0);
  b.utilization_percent.add(0.1 + 0.2);  // 0.30000000000000004
  b.utilization_percent.add(0.3);
  b.completion_percent.add(99.9);
  b.completion_percent.add(98.7);
  t.rows.push_back(a);
  t.rows.push_back(b);
  return t;
}

constexpr const char* kExpectedHeader =
    "policy,n,replications,"
    "acceptance_pct_mean,acceptance_pct_ci,"
    "blocking_pct_mean,blocking_pct_ci,"
    "dropping_pct_mean,dropping_pct_ci,"
    "utilization_pct_mean,utilization_pct_ci,"
    "completion_pct_mean,completion_pct_ci";

TEST(ResultCsv, HeaderIsStable) {
  const std::string csv = result_csv_string(small_table());
  EXPECT_EQ(csv.substr(0, csv.find('\n')), kExpectedHeader);
}

TEST(ResultCsv, RoundTripsThroughReaderAtFullPrecision) {
  const ResultTable table = small_table();
  std::istringstream is(result_csv_string(table));
  const CsvTable parsed = read_csv(is);
  ASSERT_EQ(parsed.columns.size(), 13u);
  ASSERT_EQ(parsed.rows.size(), 2u);
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const ResultRow& row = table.rows[i];
    const std::vector<std::string>& cells = parsed.rows[i];
    EXPECT_EQ(cells[0], row.coords[0]);
    EXPECT_EQ(cells[1], row.coords[1]);
    EXPECT_EQ(cells[2], "2");
    // std::stod of the emitted text must reproduce the exact double —
    // that is the whole point of the shortest-round-trip printer.
    EXPECT_EQ(std::stod(cells[3]), row.acceptance_percent.mean());
    EXPECT_EQ(std::stod(cells[4]), row.acceptance_percent.ci_half_width(0.95));
    EXPECT_EQ(std::stod(cells[5]), row.blocking_percent.mean());
    EXPECT_EQ(std::stod(cells[7]), row.dropping_percent.mean());
    EXPECT_EQ(std::stod(cells[9]), row.utilization_percent.mean());
    EXPECT_EQ(std::stod(cells[11]), row.completion_percent.mean());
  }
}

TEST(ResultCsv, FileAndStringWritersAgree) {
  const ResultTable table = small_table();
  const std::string path = "/tmp/facsp_test_result.csv";
  write_result_csv(table, path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), result_csv_string(table));
  std::remove(path.c_str());
}

TEST(ResultCsv, WritersThrowOnBadPath) {
  EXPECT_THROW(write_result_csv(small_table(), "/nonexistent_dir_xyz/r.csv"),
               Error);
  EXPECT_THROW(write_result_json(small_table(), "/nonexistent_dir_xyz/r.json"),
               Error);
}

TEST(ResultCsv, ReaderRejectsRaggedRows) {
  std::istringstream is("a,b\n1,2\n3\n");
  EXPECT_THROW(read_csv(is), ParseError);
}

TEST(ResultCsv, WriterRejectsCoordsThatWouldShiftColumns) {
  // Unquoted format: a comma inside a coordinate must fail loudly at write
  // time, not produce a ragged file the paired reader then chokes on.
  ResultTable table = small_table();
  table.rows[0].coords[0] = "ring-2, dense";
  EXPECT_THROW(result_csv_string(table), Error);
  ResultTable bad_axis = small_table();
  bad_axis.axes[0] = "poli,cy";
  EXPECT_THROW(result_csv_string(bad_axis), Error);
}

TEST(ResultJson, ControlCharactersAreEscaped) {
  ResultTable table = small_table();
  table.rows[0].coords[0] = std::string("a\rb\x01");
  const std::string json = result_json_string(table);
  EXPECT_NE(json.find("a\\u000db\\u0001"), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
}

TEST(ResultJson, StructureAndDoublesAreExact) {
  const ResultTable table = small_table();
  const std::string json = result_json_string(table);
  EXPECT_NE(json.find("\"replications\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ci_level\": 0.95"), std::string::npos);
  EXPECT_NE(json.find("\"axes\": [\"policy\", \"n\"]"), std::string::npos);
  EXPECT_NE(json.find("\"coords\": {\"policy\": \"facs-p\", \"n\": \"60\"}"),
            std::string::npos);
  // The awkward 0.1 + 0.2 sum must appear as its exact shortest form, not a
  // rounded approximation.
  EXPECT_NE(json.find("0.30000000000000004"), std::string::npos);
  // Every metric block carries the five aggregate fields.
  EXPECT_NE(json.find("\"utilization_pct\": {\"mean\": "), std::string::npos);
  EXPECT_NE(json.find("\"stddev\": "), std::string::npos);
  EXPECT_NE(json.find("\"min\": "), std::string::npos);
  EXPECT_NE(json.find("\"max\": "), std::string::npos);
}

TEST(ShapeChecks, PrintFormat) {
  std::ostringstream os;
  print_shape_checks(os, {{"first check", true, "ok"},
                          {"second check", false, ""}});
  const std::string out = os.str();
  EXPECT_NE(out.find("[PASS] first check"), std::string::npos);
  EXPECT_NE(out.find("[FAIL] second check"), std::string::npos);
  EXPECT_NE(out.find("(ok)"), std::string::npos);
}

}  // namespace
}  // namespace facsp::core
