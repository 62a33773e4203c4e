#include "serve/trace.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>

#include "common/error.h"

namespace facsp::serve {
namespace {

std::vector<StampedRequest> awkward_records() {
  std::vector<StampedRequest> records;
  StampedRequest a;
  a.req.now = 1.0 / 3.0;  // no short exact decimal
  a.req.id = 1099511627777ull;
  a.req.service = cellular::ServiceClass::kVideo;
  a.req.bandwidth = 10.0;
  a.req.kind = cellular::RequestKind::kHandoff;
  a.req.priority = cellular::UserPriority::kHigh;
  a.req.speed_kmh = 119.99999999999999;
  a.req.angle_deg = -179.5;
  a.req.distance_m = 1234.5678901234567;
  a.req.mobile.position = {-0.1, 2e-308};  // subnormal-adjacent
  a.req.mobile.speed_kmh = a.req.speed_kmh;
  a.req.mobile.heading_deg = 90.125;
  a.holding_s = 300.30000000000001;
  records.push_back(a);
  StampedRequest b;
  b.req.now = 0.5;
  b.req.service = cellular::ServiceClass::kText;
  b.req.bandwidth = 1.0;
  records.push_back(b);
  return records;
}

TEST(Trace, RoundTripIsExactAndByteStable) {
  const std::vector<StampedRequest> records = awkward_records();
  std::ostringstream first;
  write_trace(records, first);

  std::istringstream in(first.str());
  const std::vector<StampedRequest> parsed = read_trace(in);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Exact double round-trip (format_double), not approximate.
    EXPECT_EQ(parsed[i].req.now, records[i].req.now);
    EXPECT_EQ(parsed[i].req.id, records[i].req.id);
    EXPECT_EQ(parsed[i].req.service, records[i].req.service);
    EXPECT_EQ(parsed[i].req.bandwidth, records[i].req.bandwidth);
    EXPECT_EQ(parsed[i].req.kind, records[i].req.kind);
    EXPECT_EQ(parsed[i].req.priority, records[i].req.priority);
    EXPECT_EQ(parsed[i].req.speed_kmh, records[i].req.speed_kmh);
    EXPECT_EQ(parsed[i].req.angle_deg, records[i].req.angle_deg);
    EXPECT_EQ(parsed[i].req.distance_m, records[i].req.distance_m);
    EXPECT_EQ(parsed[i].holding_s, records[i].holding_s);
    EXPECT_EQ(parsed[i].req.mobile.position.x, records[i].req.mobile.position.x);
    EXPECT_EQ(parsed[i].req.mobile.position.y, records[i].req.mobile.position.y);
    EXPECT_EQ(parsed[i].req.mobile.heading_deg,
              records[i].req.mobile.heading_deg);
    // The predictor's noisy angle is recorded, and replay must see the
    // true kinematic speed too (SCC projects trajectories from it).
    EXPECT_EQ(parsed[i].req.mobile.speed_kmh, parsed[i].req.speed_kmh);
  }

  std::ostringstream second;
  write_trace(parsed, second);
  EXPECT_EQ(first.str(), second.str());  // record -> replay -> record
}

TEST(Trace, HeaderLineMatchesFormat) {
  std::ostringstream os;
  write_trace({}, os);
  EXPECT_EQ(os.str(), std::string(kTraceHeader) + "\n");
}

TEST(Trace, RejectsWrongHeader) {
  std::istringstream in("arrival_s,id\n1,2\n");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(Trace, RejectsBadCells) {
  const std::string header(kTraceHeader);
  {
    std::istringstream in(header +
                          "\nnot-a-number,1,text,1,new,normal,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);
  }
  {
    std::istringstream in(header +
                          "\n0,1,fax,1,new,normal,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);  // unknown service
  }
  {
    std::istringstream in(header +
                          "\n0,1,text,1,maybe,normal,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);  // unknown kind
  }
  {
    std::istringstream in(header + "\n0,1,text,1,new,urgent,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);  // unknown priority
  }
}

TEST(Trace, RejectsValuesTheWireRejects) {
  // One rule for both readers: each row breaks request_value_error(), and
  // replaying it would admit a call that never ends (nan holding) or count
  // a malformed request as blocked (nan bandwidth).
  const std::string header(kTraceHeader);
  const char* const rows[] = {
      "0,1,text,1,new,normal,0,0,0,nan,0,0,0",         // holding nan
      "0,1,text,nan,new,normal,0,0,0,1,0,0,0",         // bandwidth nan
      "inf,1,text,1,new,normal,0,0,0,1,0,0,0",         // now inf
      "0,1,text,1,new,normal,0,-inf,0,1,0,0,0",        // angle -inf
      "-0.5,1,text,1,new,normal,0,0,0,1,0,0,0",        // negative now
      "0,1,text,1,new,normal,0,0,0,-1,0,0,0",          // negative holding
      "4294967297,1,text,1,new,normal,0,0,0,1,0,0,0",  // now above 2^32 s
      "0,1,text,0,new,normal,0,0,0,1,0,0,0",           // zero bandwidth
  };
  for (const char* row : rows) {
    std::istringstream in(header + "\n" + row + "\n");
    EXPECT_THROW(read_trace(in), ParseError) << row;
  }
  std::istringstream edge(header +
                          "\n4294967296,1,text,1,new,normal,0,0,0,0,0,0,0\n");
  EXPECT_EQ(read_trace(edge).size(), 1u);  // the caps themselves are valid
}

TEST(Trace, FileRoundTrip) {
  const std::string path = testing::TempDir() + "facsp_trace_roundtrip.csv";
  const std::vector<StampedRequest> records = awkward_records();
  write_trace_file(records, path);
  const std::vector<StampedRequest> parsed = read_trace_file(path);
  ASSERT_EQ(parsed.size(), records.size());
  EXPECT_EQ(parsed[0].req.id, records[0].req.id);
  EXPECT_THROW(read_trace_file(path + ".does-not-exist"), Error);
}

/// Deterministic generator for the fuzzer (FrameFuzz's LCG recurrence).
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

/// Replaces the `column`-th cell of the line starting at `line_start`.
void set_cell(std::string& text, std::size_t line_start, int column,
              const std::string& value) {
  std::size_t begin = line_start;
  for (int c = 0; c < column; ++c) begin = text.find(',', begin) + 1;
  std::size_t end = text.find_first_of(",\n", begin);
  if (end == std::string::npos) end = text.size();
  text.replace(begin, end - begin, value);
}

TEST(TraceFuzz, MutatedTracesParseOrThrowParseError) {
  std::vector<StampedRequest> records = awkward_records();
  for (int i = 0; i < 6; ++i) {
    StampedRequest r = records[static_cast<std::size_t>(i % 2)];
    r.req.now = 1.0 + 0.25 * i;
    r.req.id = 10u + static_cast<std::uint64_t>(i);
    r.req.service = cellular::kAllServices[static_cast<std::size_t>(i) %
                                           cellular::kAllServices.size()];
    r.req.priority = cellular::kAllPriorities[static_cast<std::size_t>(i) %
                                              cellular::kAllPriorities.size()];
    r.req.kind = i % 2 == 0 ? cellular::RequestKind::kNew
                            : cellular::RequestKind::kHandoff;
    records.push_back(r);
  }
  std::ostringstream os;
  write_trace(records, os);
  const std::string valid = os.str();
  std::vector<std::size_t> data_lines;  // offsets of the record lines
  for (std::size_t p = valid.find('\n'); p + 1 < valid.size();
       p = valid.find('\n', p + 1))
    data_lines.push_back(p + 1);
  ASSERT_EQ(data_lines.size(), records.size());

  // Every column except id (1), service (2), kind (4) and priority (5).
  const int numeric[] = {0, 3, 6, 7, 8, 9, 10, 11, 12};
  const char* const specials[] = {"nan", "-nan", "inf", "-inf", "1e999",
                                  "-1e999", "1e-999", ""};
  const char separators[] = {',', '\n', '\r', ' '};
  Lcg rng{2024};
  int parsed = 0;
  int rejected = 0;
  int specials_rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = valid;
    const bool special = rng.below(4) == 0;
    if (special)  // a special number in a numeric field
      set_cell(text, data_lines[rng.below(data_lines.size())],
               numeric[rng.below(std::size(numeric))],
               specials[rng.below(std::size(specials))]);
    const std::size_t mutations = rng.below(4);
    // Every special is non-finite, out of range or empty: a trace carrying
    // one, and nothing else changed, must be refused.
    const bool must_reject = special && mutations == 0;
    for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
      switch (rng.below(3)) {
        case 0:  // flip a byte
          text[rng.below(text.size())] ^=
              static_cast<char>(1 + rng.below(255));
          break;
        case 1:  // truncate
          text.resize(rng.below(text.size()));
          break;
        default:  // insert a separator
          text.insert(rng.below(text.size() + 1), 1,
                      separators[rng.below(std::size(separators))]);
          break;
      }
    }
    std::istringstream in(text);
    try {
      const std::vector<StampedRequest> out = read_trace(in);
      EXPECT_LE(out.size(), records.size()) << "case " << i;
      EXPECT_FALSE(must_reject) << "case " << i << " accepted:\n" << text;
      for (const StampedRequest& r : out)
        EXPECT_EQ(request_value_error(r), nullptr) << "case " << i;
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;
      if (must_reject) ++specials_rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << ": " << e.what() << "\n" << text;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(parsed, 500);
  EXPECT_GT(rejected, 500);
  EXPECT_GT(specials_rejected, 500);
}

}  // namespace
}  // namespace facsp::serve
