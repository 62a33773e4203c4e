#include "serve/trace.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "common/file_io.h"
#include "core/config_io.h"
#include "core/report.h"

namespace facsp::serve {

const char kTraceHeader[] =
    "arrival_s,id,service,bandwidth_bu,kind,priority,speed_kmh,angle_deg,"
    "distance_m,holding_s,pos_x_m,pos_y_m,heading_deg";

namespace {

using core::format_double;

double parse_double(const std::string& cell, int row) {
  double v = 0.0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end)
    throw ParseError("trace: bad number '" + cell + "'", row);
  return v;
}

std::uint64_t parse_u64(const std::string& cell, int row) {
  std::uint64_t v = 0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end)
    throw ParseError("trace: bad id '" + cell + "'", row);
  return v;
}

cellular::ServiceClass parse_service(const std::string& cell, int row) {
  for (const auto s : cellular::kAllServices)
    if (cell == cellular::service_name(s)) return s;
  throw ParseError("trace: unknown service '" + cell + "'", row);
}

cellular::UserPriority parse_priority(const std::string& cell, int row) {
  for (const auto p : cellular::kAllPriorities)
    if (cell == cellular::priority_name(p)) return p;
  throw ParseError("trace: unknown priority '" + cell + "'", row);
}

cellular::RequestKind parse_kind(const std::string& cell, int row) {
  if (cell == "new") return cellular::RequestKind::kNew;
  if (cell == "handoff") return cellular::RequestKind::kHandoff;
  throw ParseError("trace: unknown kind '" + cell + "'", row);
}

}  // namespace

const char* request_value_error(const StampedRequest& r) noexcept {
  const cac::AdmissionRequest& q = r.req;
  const double doubles[] = {q.now,          q.bandwidth,
                            q.speed_kmh,    q.angle_deg,
                            q.distance_m,   r.holding_s,
                            q.mobile.position.x, q.mobile.position.y,
                            q.mobile.heading_deg};
  for (const double v : doubles)
    if (!std::isfinite(v)) return "non-finite value";
  if (q.now < 0.0) return "negative arrival time";
  if (r.holding_s < 0.0) return "negative holding time";
  if (q.now > kMaxArrivalS) return "arrival time above 2^32 s";
  if (q.bandwidth <= 0.0) return "non-positive bandwidth";
  return nullptr;
}

void write_trace(const std::vector<StampedRequest>& records,
                 std::ostream& os) {
  os << kTraceHeader << '\n';
  for (const StampedRequest& r : records) {
    os << format_double(r.req.now) << ',' << r.req.id << ','
       << cellular::service_name(r.req.service) << ','
       << format_double(r.req.bandwidth) << ','
       << (r.req.kind == cellular::RequestKind::kHandoff ? "handoff" : "new")
       << ',' << cellular::priority_name(r.req.priority) << ','
       << format_double(r.req.speed_kmh) << ','
       << format_double(r.req.angle_deg) << ','
       << format_double(r.req.distance_m) << ','
       << format_double(r.holding_s) << ','
       << format_double(r.req.mobile.position.x) << ','
       << format_double(r.req.mobile.position.y) << ','
       << format_double(r.req.mobile.heading_deg) << '\n';
  }
}

void write_trace_file(const std::vector<StampedRequest>& records,
                      const std::string& path) {
  write_file(path, [&](std::ostream& os) { write_trace(records, os); });
}

std::vector<StampedRequest> read_trace(std::istream& is) {
  const core::CsvTable table = core::read_csv(is);
  {
    std::ostringstream header;
    for (std::size_t i = 0; i < table.columns.size(); ++i)
      header << (i != 0 ? "," : "") << table.columns[i];
    if (header.str() != kTraceHeader)
      throw ParseError("trace: header mismatch, expected '" +
                           std::string(kTraceHeader) + "', got '" +
                           header.str() + "'",
                       1);
  }
  std::vector<StampedRequest> records;
  records.reserve(table.rows.size());
  int rowno = 1;
  for (const auto& cells : table.rows) {
    ++rowno;
    StampedRequest r;
    r.req.now = parse_double(cells[0], rowno);
    r.req.id = parse_u64(cells[1], rowno);
    r.req.service = parse_service(cells[2], rowno);
    r.req.bandwidth = parse_double(cells[3], rowno);
    r.req.kind = parse_kind(cells[4], rowno);
    r.req.priority = parse_priority(cells[5], rowno);
    r.req.speed_kmh = parse_double(cells[6], rowno);
    r.req.angle_deg = parse_double(cells[7], rowno);
    r.req.distance_m = parse_double(cells[8], rowno);
    r.holding_s = parse_double(cells[9], rowno);
    r.req.mobile.position.x = parse_double(cells[10], rowno);
    r.req.mobile.position.y = parse_double(cells[11], rowno);
    r.req.mobile.heading_deg = parse_double(cells[12], rowno);
    r.req.mobile.speed_kmh = r.req.speed_kmh;
    if (const char* why = request_value_error(r))
      throw ParseError(std::string("trace: ") + why, rowno);
    records.push_back(r);
  }
  return records;
}

std::vector<StampedRequest> read_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open trace '" + path + "'");
  return read_trace(is);
}

}  // namespace facsp::serve
