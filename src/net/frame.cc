#include "net/frame.h"

#include <bit>
#include <cstring>

namespace facsp::net {

namespace {

// Explicit little-endian stores/loads: byte-order-correct on any host, and
// compilers collapse them to plain moves on LE targets.

inline void store_u16(std::uint16_t v, std::uint8_t* p) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_u32(std::uint32_t v, std::uint8_t* p) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_u64(std::uint64_t v, std::uint8_t* p) noexcept {
  store_u32(static_cast<std::uint32_t>(v), p);
  store_u32(static_cast<std::uint32_t>(v >> 32), p + 4);
}

inline void store_f64(double v, std::uint8_t* p) noexcept {
  store_u64(std::bit_cast<std::uint64_t>(v), p);
}

inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

inline double load_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(load_u64(p));
}

inline std::size_t expected_payload(FrameType t) noexcept {
  switch (t) {
    case FrameType::kRequest:
      return kRequestPayloadSize;
    case FrameType::kResponse:
      return kResponsePayloadSize;
    case FrameType::kError:
      return kErrorPayloadSize;
    case FrameType::kFlush:
      return 0;
    case FrameType::kDropped:
      return kDroppedPayloadSize;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

const char* wire_error_name(WireError e) noexcept {
  switch (e) {
    case WireError::kNone:
      return "none";
    case WireError::kBadVersion:
      return "bad-version";
    case WireError::kBadType:
      return "bad-type";
    case WireError::kOversized:
      return "oversized";
    case WireError::kBadLength:
      return "bad-length";
    case WireError::kBadEnum:
      return "bad-enum";
    case WireError::kBadValue:
      return "bad-value";
    case WireError::kTimeOrder:
      return "time-order";
    case WireError::kHorizon:
      return "horizon";
  }
  return "unknown";
}

void encode_header(const FrameHeader& h, std::uint8_t* out) {
  store_u32(h.len, out);
  out[4] = static_cast<std::uint8_t>(h.type);
  out[5] = h.version;
  store_u16(h.reserved, out + 6);
}

FrameHeader decode_header(const std::uint8_t* in) {
  FrameHeader h;
  h.len = load_u32(in);
  h.type = static_cast<FrameType>(in[4]);
  h.version = in[5];
  h.reserved = load_u16(in + 6);
  return h;
}

WireError validate_header(const FrameHeader& h) noexcept {
  if (h.version != kProtocolVersion || h.reserved != 0)
    return WireError::kBadVersion;
  // Oversized first: a hostile length must be rejected before anything
  // tries to buffer it, even when the type byte is also garbage.
  if (h.len > kMaxPayload) return WireError::kOversized;
  const std::size_t want = expected_payload(h.type);
  if (want == static_cast<std::size_t>(-1)) return WireError::kBadType;
  if (h.len != want) return WireError::kBadLength;
  return WireError::kNone;
}

void encode_request(const serve::StampedRequest& r, std::uint8_t* out) {
  const cac::AdmissionRequest& q = r.req;
  store_f64(q.now, out + 0);
  store_u64(q.id, out + 8);
  store_f64(q.bandwidth, out + 16);
  store_f64(q.speed_kmh, out + 24);
  store_f64(q.angle_deg, out + 32);
  store_f64(q.distance_m, out + 40);
  store_f64(r.holding_s, out + 48);
  store_f64(q.mobile.position.x, out + 56);
  store_f64(q.mobile.position.y, out + 64);
  store_f64(q.mobile.heading_deg, out + 72);
  out[80] = static_cast<std::uint8_t>(q.service);
  out[81] = static_cast<std::uint8_t>(q.kind);
  out[82] = static_cast<std::uint8_t>(q.priority);
  std::memset(out + 83, 0, 5);
}

WireError decode_request(const std::uint8_t* in, std::size_t len,
                         serve::StampedRequest& out) noexcept {
  if (len != kRequestPayloadSize) return WireError::kBadLength;
  const std::uint8_t service = in[80];
  const std::uint8_t kind = in[81];
  const std::uint8_t priority = in[82];
  if (service > 2) return WireError::kBadEnum;
  if (kind > 1) return WireError::kBadEnum;
  if (priority > 2) return WireError::kBadEnum;

  cac::AdmissionRequest& q = out.req;
  q.now = load_f64(in + 0);
  q.id = load_u64(in + 8);
  q.bandwidth = load_f64(in + 16);
  q.speed_kmh = load_f64(in + 24);
  q.angle_deg = load_f64(in + 32);
  q.distance_m = load_f64(in + 40);
  out.holding_s = load_f64(in + 48);
  q.mobile.position.x = load_f64(in + 56);
  q.mobile.position.y = load_f64(in + 64);
  q.mobile.heading_deg = load_f64(in + 72);
  q.mobile.speed_kmh = q.speed_kmh;
  q.service = static_cast<cellular::ServiceClass>(service);
  q.kind = static_cast<cellular::RequestKind>(kind);
  q.priority = static_cast<cellular::UserPriority>(priority);
  return serve::request_value_error(out) == nullptr ? WireError::kNone
                                                    : WireError::kBadValue;
}

void encode_response(std::uint64_t id, const cac::AdmissionDecision& d,
                     std::uint8_t* out) {
  store_u64(id, out + 0);
  store_f64(d.score, out + 8);
  out[16] = d.admitted ? 1 : 0;
  out[17] = static_cast<std::uint8_t>(d.verdict);
  std::memset(out + 18, 0, 6);
}

WireError decode_response(const std::uint8_t* in, std::size_t len,
                          ResponseFrame& out) noexcept {
  if (len != kResponsePayloadSize) return WireError::kBadLength;
  out.id = load_u64(in + 0);
  out.score = load_f64(in + 8);
  if (in[16] > 1) return WireError::kBadValue;
  out.admitted = in[16] != 0;
  out.verdict = in[17];
  if (out.verdict > 4) return WireError::kBadEnum;
  return WireError::kNone;
}

void encode_error(WireError code, std::uint32_t detail, std::uint8_t* out) {
  store_u32(static_cast<std::uint32_t>(code), out + 0);
  store_u32(detail, out + 4);
}

WireError decode_error(const std::uint8_t* in, std::size_t len,
                       ErrorFrame& out) noexcept {
  if (len != kErrorPayloadSize) return WireError::kBadLength;
  out.code = static_cast<WireError>(load_u32(in + 0));
  out.detail = load_u32(in + 4);
  return WireError::kNone;
}

void encode_dropped(std::uint64_t id, std::uint8_t* out) {
  store_u64(id, out);
}

WireError decode_dropped(const std::uint8_t* in, std::size_t len,
                         std::uint64_t& id) noexcept {
  if (len != kDroppedPayloadSize) return WireError::kBadLength;
  id = load_u64(in);
  return WireError::kNone;
}

}  // namespace facsp::net
