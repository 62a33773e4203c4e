// Wire format of the admission port: length-prefixed little-endian binary
// frames.  Fixed layouts, no varints, no strings — a frame decodes with a
// handful of loads and zero allocation, and every field of the serve trace
// CSV (serve/trace.h) has a slot, so a recorded trace round-trips through
// the socket losslessly.
//
// Frame = 8-byte header + payload:
//
//   offset  size  field
//   0       4     u32  payload length (bytes, little-endian)
//   4       1     u8   frame type (FrameType)
//   5       1     u8   protocol version (kProtocolVersion = 1)
//   6       2     u16  reserved, must be 0
//
// Request payload (type kRequest, 88 bytes) — the 13 serve-trace columns:
//
//   offset  size  field
//   0       8     f64  arrival_s (simulated clock; nondecreasing per
//                      connection stream, enforced server-side; decode
//                      rejects values above kMaxArrivalS, the server
//                      additionally bounds forward skew vs its watermark)
//   8       8     u64  connection id
//   16      8     f64  bandwidth_bu (must be > 0)
//   24      8     f64  speed_kmh
//   32      8     f64  angle_deg
//   40      8     f64  distance_m
//   48      8     f64  holding_s
//   56      8     f64  pos_x_m
//   64      8     f64  pos_y_m
//   72      8     f64  heading_deg
//   80      1     u8   service  (0 text, 1 voice, 2 video)
//   81      1     u8   kind     (0 new, 1 handoff)
//   82      1     u8   priority (0 low, 1 normal, 2 high)
//   83      5     —    reserved, zero on encode, ignored on decode
//
// Response payload (type kResponse, 24 bytes):
//
//   0       8     u64  connection id (echoes the request)
//   8       8     f64  decision score in [-1, 1]
//   16      1     u8   admitted (0/1, post-capacity-re-check)
//   17      1     u8   verdict (cac::Verdict, 0 reject .. 4 accept)
//   18      6     —    reserved, zero
//
// Error payload (type kError, 8 bytes): u32 code (WireError), u32 detail
// (offending value, truncated).  The server sends exactly one error frame
// for the first malformed input on a connection, then closes it.
//
// Flush (type kFlush, 0 bytes): client -> server closes all open admission
// batches and answers everything buffered, then echoes a flush frame on the
// same connection — a completion barrier for clients and the drain path.
//
// Dropped payload (type kDropped, 8 bytes): u64 connection id of a request
// shed by the global pending cap (drop-oldest).  Sent instead of a
// response; counted in the metrics registry.
//
// All multi-byte integers are little-endian regardless of host order;
// doubles are IEEE-754 bit patterns carried as u64.
#pragma once

#include <cstdint>
#include <cstddef>

#include "serve/trace.h"

namespace facsp::net {

inline constexpr std::size_t kHeaderSize = 8;
inline constexpr std::uint8_t kProtocolVersion = 1;
/// Largest payload the server will buffer.  Far above every defined frame
/// (88 bytes) so the format can grow, far below the read buffer so a
/// hostile length prefix can never wedge a connection.
inline constexpr std::uint32_t kMaxPayload = 4096;
/// Largest arrival_s a request frame may carry: the request rule's cap
/// (serve/trace.h), on top of which the server bounds forward skew.
using serve::kMaxArrivalS;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kError = 3,
  kFlush = 4,
  kDropped = 5,
};

/// Typed protocol failures (the `code` field of an error frame).
enum class WireError : std::uint32_t {
  kNone = 0,
  kBadVersion = 1,   ///< header version != kProtocolVersion
  kBadType = 2,      ///< unknown frame type, or a type clients must not send
  kOversized = 3,    ///< length prefix > kMaxPayload
  kBadLength = 4,    ///< payload size wrong for the frame type
  kBadEnum = 5,      ///< service/kind/priority byte out of range
  kBadValue = 6,     ///< breaks serve::request_value_error() (non-finite,
                     ///< negative time/holding, arrival_s > kMaxArrivalS,
                     ///< non-positive bandwidth)
  kTimeOrder = 7,    ///< arrival_s below the server's watermark
  kHorizon = 8,      ///< arrival_s too far above the watermark (max skew)
};

const char* wire_error_name(WireError e) noexcept;

struct FrameHeader {
  std::uint32_t len = 0;
  FrameType type = FrameType::kRequest;
  std::uint8_t version = kProtocolVersion;
  std::uint16_t reserved = 0;
};

inline constexpr std::size_t kRequestPayloadSize = 88;
inline constexpr std::size_t kResponsePayloadSize = 24;
inline constexpr std::size_t kErrorPayloadSize = 8;
inline constexpr std::size_t kDroppedPayloadSize = 8;

/// Decoded response frame (client side).
struct ResponseFrame {
  std::uint64_t id = 0;
  double score = 0.0;
  bool admitted = false;
  std::uint8_t verdict = 0;
};

/// Decoded error frame (client side).
struct ErrorFrame {
  WireError code = WireError::kNone;
  std::uint32_t detail = 0;
};

// --- header ----------------------------------------------------------------

void encode_header(const FrameHeader& h, std::uint8_t* out /*[kHeaderSize]*/);
/// Raw header decode; no validation beyond field extraction.
FrameHeader decode_header(const std::uint8_t* in /*[kHeaderSize]*/);
/// kBadVersion / kOversized / kBadType / kBadLength (length wrong for a
/// known type) — kNone when the header is acceptable.
WireError validate_header(const FrameHeader& h) noexcept;

// --- payloads --------------------------------------------------------------

void encode_request(const serve::StampedRequest& r,
                    std::uint8_t* out /*[kRequestPayloadSize]*/);
/// kBadLength / kBadEnum / kBadValue — kNone on success.
WireError decode_request(const std::uint8_t* in, std::size_t len,
                         serve::StampedRequest& out) noexcept;

void encode_response(std::uint64_t id, const cac::AdmissionDecision& d,
                     std::uint8_t* out /*[kResponsePayloadSize]*/);
WireError decode_response(const std::uint8_t* in, std::size_t len,
                          ResponseFrame& out) noexcept;

void encode_error(WireError code, std::uint32_t detail,
                  std::uint8_t* out /*[kErrorPayloadSize]*/);
WireError decode_error(const std::uint8_t* in, std::size_t len,
                       ErrorFrame& out) noexcept;

void encode_dropped(std::uint64_t id,
                    std::uint8_t* out /*[kDroppedPayloadSize]*/);
WireError decode_dropped(const std::uint8_t* in, std::size_t len,
                         std::uint64_t& id) noexcept;

/// Full frame (header + payload) sizes, for sizing client buffers.
inline constexpr std::size_t kRequestFrameSize =
    kHeaderSize + kRequestPayloadSize;
inline constexpr std::size_t kResponseFrameSize =
    kHeaderSize + kResponsePayloadSize;
inline constexpr std::size_t kErrorFrameSize = kHeaderSize + kErrorPayloadSize;
inline constexpr std::size_t kDroppedFrameSize =
    kHeaderSize + kDroppedPayloadSize;
inline constexpr std::size_t kFlushFrameSize = kHeaderSize;

}  // namespace facsp::net
