// On-disk admission-request trace: `scenario_runner trace record` captures
// the exact request sequence a workload stream produces, and
// `decision_server --replay` feeds it back.
//
// The format is a plain CSV with a fixed header (see kTraceColumns).  All
// doubles are written through core::format_double — shortest decimal that
// round-trips exactly — so record -> replay -> record is byte-stable and a
// recorded trace is diffable across machines.
//
// Records carry the *post-prediction* request (the noisy angle the policy
// actually saw, not the true heading), so replaying never re-draws any
// randomness: a trace pins the policy inputs completely.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cac/policy.h"

namespace facsp::serve {

/// One admission request as the server sees it, plus the call's holding
/// time (needed to schedule the session's bandwidth release on admit).
/// `req.now` is the arrival time in seconds on the simulated clock.
struct StampedRequest {
  cac::AdmissionRequest req;
  double holding_s = 0.0;
};

/// Largest arrival time a request may carry (2^32 simulated seconds, ~136
/// years).  A hard sanity cap: it keeps every downstream double->int64
/// second computation far from overflow.
inline constexpr double kMaxArrivalS = 4294967296.0;

/// The value rule for a request from outside the process (a trace row or a
/// wire frame): every double finite, 0 <= now <= kMaxArrivalS, holding >= 0
/// and bandwidth > 0.  A non-finite value poisons batching and expiry, an
/// absurd arrival time wedges the server finalizing empty seconds, and a
/// non-positive bandwidth trips BaseStation::allocate's precondition.
/// Returns what is wrong, or nullptr when the request is usable.
const char* request_value_error(const StampedRequest& r) noexcept;

/// The trace header line (column order is part of the format).
extern const char kTraceHeader[];

/// Write records as trace CSV.  Byte-stable: same records -> same bytes.
void write_trace(const std::vector<StampedRequest>& records, std::ostream& os);
/// Throws facsp::Error on I/O failure.
void write_trace_file(const std::vector<StampedRequest>& records,
                      const std::string& path);

/// Parse a trace CSV.  Throws facsp::ParseError on a malformed header,
/// unknown enum name, unparsable number, or a row that breaks
/// request_value_error().
std::vector<StampedRequest> read_trace(std::istream& is);
std::vector<StampedRequest> read_trace_file(const std::string& path);

}  // namespace facsp::serve
