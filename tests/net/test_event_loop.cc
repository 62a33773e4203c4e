// NetServer end to end over real loopback sockets: request/response round
// trips, the FLUSH barrier, malformed-input error frames, partial writes,
// mid-batch disconnects, the telemetry scrape, connection-slot reuse,
// response coalescing and backpressure, and graceful stop.  The server
// runs on its own thread (which is also what gives TSan a cross-thread
// schedule to check);
// clients are plain blocking sockets with a receive timeout so a server
// bug fails the test instead of hanging it.
#include "net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "workload/catalog.h"

namespace facsp::net {
namespace {

void send_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    ASSERT_GT(w, 0) << "client write failed: " << std::strerror(errno);
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// False on clean EOF before any byte; fatal on timeout/error midway.
bool read_exact(int fd, std::uint8_t* p, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r == 0) {
      EXPECT_EQ(got, 0u) << "EOF mid-frame";
      return false;
    }
    if (r < 0) {
      ADD_FAILURE() << "client read failed: " << std::strerror(errno);
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

bool read_frame(int fd, Frame& out) {
  std::uint8_t hdr[kHeaderSize];
  if (!read_exact(fd, hdr, sizeof hdr)) return false;
  out.header = decode_header(hdr);
  EXPECT_EQ(validate_header(out.header), WireError::kNone);
  out.payload.resize(out.header.len);
  if (out.header.len > 0 && !read_exact(fd, out.payload.data(), out.header.len))
    return false;
  return true;
}

UniqueFd connect_client(std::uint16_t port) {
  UniqueFd fd = connect_tcp("127.0.0.1", port);
  timeval tv{5, 0};
  setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

serve::StampedRequest request_at(double t, std::uint64_t id) {
  serve::StampedRequest r;
  r.req.now = t;
  r.req.id = id;
  r.req.bandwidth = 1.0;
  r.req.speed_kmh = 30.0;
  r.req.angle_deg = 10.0;
  r.req.distance_m = 100.0;
  r.req.mobile.position.x = 10.0;
  r.req.mobile.position.y = 10.0;
  r.req.mobile.heading_deg = 0.0;
  r.req.mobile.speed_kmh = 30.0;
  r.holding_s = 60.0;
  return r;
}

void send_request(int fd, const serve::StampedRequest& r) {
  std::uint8_t buf[kRequestFrameSize];
  encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                 FrameType::kRequest, kProtocolVersion, 0},
                buf);
  encode_request(r, buf + kHeaderSize);
  send_all(fd, buf, sizeof buf);
}

/// `count` request frames with ids first_id, first_id + 1, ... arriving
/// 1 ms apart, optionally followed by a FLUSH, as one byte stream.
std::vector<std::uint8_t> encode_burst(std::uint64_t first_id, int count,
                                       bool flush) {
  std::vector<std::uint8_t> out(count * kRequestFrameSize +
                                (flush ? kFlushFrameSize : 0));
  std::uint8_t* w = out.data();
  for (int i = 0; i < count; ++i, w += kRequestFrameSize) {
    const std::uint64_t id = first_id + static_cast<std::uint64_t>(i);
    encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                   FrameType::kRequest, kProtocolVersion, 0},
                  w);
    encode_request(request_at(0.1 + 0.001 * static_cast<double>(id), id),
                   w + kHeaderSize);
  }
  if (flush) encode_header({0, FrameType::kFlush, kProtocolVersion, 0}, w);
  return out;
}

void send_flush(int fd) {
  std::uint8_t buf[kFlushFrameSize];
  encode_header({0, FrameType::kFlush, kProtocolVersion, 0}, buf);
  send_all(fd, buf, sizeof buf);
}

/// Turns the metrics registry on for one test and off again after it.
struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Polls `name` until it reaches `target` (the server runs on another
/// thread); false after five seconds.
bool wait_for_counter(const char* name, std::uint64_t target) {
  for (int i = 0; i < 5000 && counter(name) < target; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return counter(name) >= target;
}

class EventLoopTest : public ::testing::Test {
 protected:
  /// Quick idle flush: tests that skip the FLUSH barrier still see their
  /// responses promptly.
  static NetConfig quick_net() {
    NetConfig net;
    net.flush_idle_s = 0.01;
    return net;
  }

  void start(NetConfig net = quick_net(), int shards = 2) {
    serve_config_.scenario = workload::catalog_scenario("paper-grid");
    serve_config_.scenario_label = "paper-grid";
    serve_config_.shards = shards;
    serve_config_.batch_window_s = 0.05;
    serve_config_.batch_max = 64;
    net.port = 0;
    net.telemetry_port = 0;
    server_ = std::make_unique<NetServer>(serve_config_, net);
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_ && thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }

  serve::ServerConfig serve_config_;
  std::unique_ptr<NetServer> server_;
  std::thread thread_;
};

TEST_F(EventLoopTest, RequestResponseRoundTrip) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(0.5, 42));
  send_flush(fd.get());

  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kResponse);
  ResponseFrame r;
  ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
            WireError::kNone);
  EXPECT_EQ(r.id, 42u);
  EXPECT_GE(r.score, -1.0);
  EXPECT_LE(r.score, 1.0);
  EXPECT_LE(r.verdict, 4);

  // The FLUSH echo is the completion barrier: it arrives after the
  // decisions it forced.
  ASSERT_TRUE(read_frame(fd.get(), f));
  EXPECT_EQ(f.header.type, FrameType::kFlush);
}

TEST_F(EventLoopTest, FlushEchoArrivesAfterAllResponses) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  for (int i = 0; i < 5; ++i)
    send_request(fd.get(), request_at(0.1 + 0.001 * i, 100 + i));
  send_flush(fd.get());

  std::vector<std::uint64_t> ids;
  Frame f;
  for (;;) {
    ASSERT_TRUE(read_frame(fd.get(), f));
    if (f.header.type == FrameType::kFlush) break;
    ASSERT_EQ(f.header.type, FrameType::kResponse);
    ResponseFrame r;
    ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
              WireError::kNone);
    ids.push_back(r.id);
  }
  // Responses come out in per-shard batch order, not submit order; every
  // request is answered exactly once before the flush echo.
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ids[i], 100u + i) << i;
}

TEST_F(EventLoopTest, BadVersionGetsTypedErrorThenClose) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  std::uint8_t hdr[kHeaderSize];
  encode_header({0, FrameType::kFlush, /*version=*/9, 0}, hdr);
  send_all(fd.get(), hdr, sizeof hdr);

  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kError);
  ErrorFrame e;
  ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
            WireError::kNone);
  EXPECT_EQ(e.code, WireError::kBadVersion);
  EXPECT_FALSE(read_frame(fd.get(), f));  // server closed after the error
}

TEST_F(EventLoopTest, OversizedLengthPrefixGetsError) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  std::uint8_t hdr[kHeaderSize];
  encode_header({kMaxPayload + 1, FrameType::kRequest, kProtocolVersion, 0},
                hdr);
  send_all(fd.get(), hdr, sizeof hdr);
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kError);
  ErrorFrame e;
  ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
            WireError::kNone);
  EXPECT_EQ(e.code, WireError::kOversized);
  EXPECT_FALSE(read_frame(fd.get(), f));
}

TEST_F(EventLoopTest, ResponseTypeFromClientIsRejected) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  std::uint8_t buf[kResponseFrameSize] = {};
  encode_header({static_cast<std::uint32_t>(kResponsePayloadSize),
                 FrameType::kResponse, kProtocolVersion, 0},
                buf);
  send_all(fd.get(), buf, sizeof buf);
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kError);
  ErrorFrame e;
  ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
            WireError::kNone);
  EXPECT_EQ(e.code, WireError::kBadType);
}

TEST_F(EventLoopTest, BadEnumInRequestGetsError) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  std::uint8_t buf[kRequestFrameSize];
  encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                 FrameType::kRequest, kProtocolVersion, 0},
                buf);
  encode_request(request_at(0.1, 7), buf + kHeaderSize);
  buf[kHeaderSize + 80] = 9;  // service enum out of range
  send_all(fd.get(), buf, sizeof buf);
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kError);
  ErrorFrame e;
  ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
            WireError::kNone);
  EXPECT_EQ(e.code, WireError::kBadEnum);
}

TEST_F(EventLoopTest, TimeOrderViolationGetsError) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(5.0, 1));
  send_request(fd.get(), request_at(1.0, 2));  // below the watermark
  Frame f;
  // The error may arrive before or after request 1's response, depending
  // on batch timing — scan until it shows up.
  bool saw_error = false;
  while (read_frame(fd.get(), f)) {
    if (f.header.type == FrameType::kError) {
      ErrorFrame e;
      ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
                WireError::kNone);
      EXPECT_EQ(e.code, WireError::kTimeOrder);
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
}

TEST_F(EventLoopTest, FarFutureArrivalGetsHorizonErrorAndServerSurvives) {
  start();
  {
    // One frame claiming now = 9e18 used to wedge the loop finalizing
    // quintillions of empty seconds; it must bounce at decode instead.
    UniqueFd hostile = connect_client(server_->admission_port());
    send_request(hostile.get(), request_at(9e18, 1));
    Frame f;
    ASSERT_TRUE(read_frame(hostile.get(), f));
    ASSERT_EQ(f.header.type, FrameType::kError);
    ErrorFrame e;
    ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
              WireError::kNone);
    EXPECT_EQ(e.code, WireError::kBadValue);
    EXPECT_FALSE(read_frame(hostile.get(), f));  // closed after the error
  }
  {
    // Decodable but beyond the watermark-relative skew horizon: typed
    // horizon error, connection closed, server still alive.
    UniqueFd skewed = connect_client(server_->admission_port());
    send_request(skewed.get(), request_at(1.0e9, 2));
    Frame f;
    ASSERT_TRUE(read_frame(skewed.get(), f));
    ASSERT_EQ(f.header.type, FrameType::kError);
    ErrorFrame e;
    ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
              WireError::kNone);
    EXPECT_EQ(e.code, WireError::kHorizon);
    EXPECT_FALSE(read_frame(skewed.get(), f));
  }
  // Everyone else is still being served.
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(0.5, 3));
  send_flush(fd.get());
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  EXPECT_EQ(f.header.type, FrameType::kResponse);
}

TEST_F(EventLoopTest, NonPositiveBandwidthGetsErrorNotACrash) {
  start();
  {
    UniqueFd bad = connect_client(server_->admission_port());
    serve::StampedRequest r = request_at(0.1, 9);
    r.req.bandwidth = 0.0;
    send_request(bad.get(), r);
    Frame f;
    ASSERT_TRUE(read_frame(bad.get(), f));
    ASSERT_EQ(f.header.type, FrameType::kError);
    ErrorFrame e;
    ASSERT_EQ(decode_error(f.payload.data(), f.payload.size(), e),
              WireError::kNone);
    EXPECT_EQ(e.code, WireError::kBadValue);
  }
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(0.2, 10));
  send_flush(fd.get());
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  EXPECT_EQ(f.header.type, FrameType::kResponse);
}

TEST_F(EventLoopTest, DuplicateInFlightIdIsDemotedNotFatal) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  // Both id-7 requests land on the same shard (seq 0 and 2 of seq%2) with
  // overlapping holding times — the loadgen --repeat shape that used to
  // trip BaseStation::allocate's !holds precondition and kill the server.
  send_request(fd.get(), request_at(0.10, 7));
  send_request(fd.get(), request_at(0.11, 500));
  send_request(fd.get(), request_at(0.12, 7));
  send_flush(fd.get());

  int responses_for_7 = 0;
  int admitted_for_7 = 0;
  Frame f;
  for (;;) {
    ASSERT_TRUE(read_frame(fd.get(), f));
    if (f.header.type == FrameType::kFlush) break;
    ASSERT_EQ(f.header.type, FrameType::kResponse);
    ResponseFrame r;
    ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
              WireError::kNone);
    if (r.id == 7u) {
      ++responses_for_7;
      if (r.admitted) ++admitted_for_7;
    }
  }
  EXPECT_EQ(responses_for_7, 2);
  EXPECT_LE(admitted_for_7, 1);  // duplicate demoted, never held twice
}

TEST_F(EventLoopTest, OneByteAtATimeWritesStillParse) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  std::uint8_t buf[kRequestFrameSize];
  encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                 FrameType::kRequest, kProtocolVersion, 0},
                buf);
  encode_request(request_at(0.25, 77), buf + kHeaderSize);
  for (std::size_t i = 0; i < sizeof buf; ++i)
    send_all(fd.get(), buf + i, 1);  // worst-case fragmentation
  send_flush(fd.get());
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kResponse);
  ResponseFrame r;
  ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
            WireError::kNone);
  EXPECT_EQ(r.id, 77u);
}

TEST_F(EventLoopTest, MidBatchDisconnectDoesNotPoisonOthers) {
  start();
  {
    // Connection A contributes to an open batch, then vanishes.
    UniqueFd a = connect_client(server_->admission_port());
    send_request(a.get(), request_at(0.10, 1));
  }
  // Connection B joins the same batching window and must still be served.
  UniqueFd b = connect_client(server_->admission_port());
  send_request(b.get(), request_at(0.11, 2));
  send_flush(b.get());
  Frame f;
  ASSERT_TRUE(read_frame(b.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kResponse);
  ResponseFrame r;
  ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
            WireError::kNone);
  EXPECT_EQ(r.id, 2u);
}

TEST_F(EventLoopTest, TruncatedFrameThenCloseLeavesServerServing) {
  start();
  {
    UniqueFd broken = connect_client(server_->admission_port());
    std::uint8_t half[kHeaderSize + 13];
    encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                   FrameType::kRequest, kProtocolVersion, 0},
                  half);
    std::memset(half + kHeaderSize, 0xab, 13);
    send_all(broken.get(), half, sizeof half);  // 13 of 88 payload bytes
  }
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(0.2, 5));
  send_flush(fd.get());
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  EXPECT_EQ(f.header.type, FrameType::kResponse);
}

TEST_F(EventLoopTest, InterleavedConnectionsEachGetTheirOwnResponses) {
  start();
  UniqueFd a = connect_client(server_->admission_port());
  UniqueFd b = connect_client(server_->admission_port());
  // One shared arrival time: the two sockets' bytes reach the server in
  // whatever order the kernel delivers them, and equal timestamps satisfy
  // the watermark either way.
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0)
      send_request(a.get(), request_at(0.1, 1000 + i));
    else
      send_request(b.get(), request_at(0.1, 2000 + i));
  }
  send_flush(a.get());
  send_flush(b.get());

  auto collect = [](int fd) {
    std::vector<std::uint64_t> ids;
    Frame f;
    for (;;) {
      if (!read_frame(fd, f)) break;
      if (f.header.type == FrameType::kFlush) break;
      ResponseFrame r;
      EXPECT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
                WireError::kNone);
      ids.push_back(r.id);
    }
    return ids;
  };
  const auto ids_a = collect(a.get());
  const auto ids_b = collect(b.get());
  ASSERT_EQ(ids_a.size(), 3u);
  ASSERT_EQ(ids_b.size(), 3u);
  for (const std::uint64_t id : ids_a) EXPECT_LT(id, 2000u);
  for (const std::uint64_t id : ids_b) EXPECT_GE(id, 2000u);
}

TEST_F(EventLoopTest, ScrapeServesTelemetryAndMetrics) {
  start();
  // Push one second past the watermark so a row finalizes.
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(0.5, 1));
  send_request(fd.get(), request_at(1.5, 2));
  send_flush(fd.get());
  Frame f;
  while (read_frame(fd.get(), f) && f.header.type != FrameType::kFlush) {
  }

  UniqueFd scrape = connect_client(server_->telemetry_port());
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(scrape.get(), buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(text.find("# facsp-telemetry v1"), std::string::npos);
  EXPECT_NE(text.find("second,decisions,admitted"), std::string::npos);
  EXPECT_NE(text.find("seconds_finalized 1"), std::string::npos);
  EXPECT_NE(text.find("# metrics"), std::string::npos);
}

TEST_F(EventLoopTest, AdmissionConnectionReusingAScrapeSlotServes) {
  start();
  // A scrape read to EOF has been closed server-side, so its connection
  // slot is back in the free pool and the next accept reuses it.
  UniqueFd scrape = connect_client(server_->telemetry_port());
  char buf[4096];
  while (::read(scrape.get(), buf, sizeof buf) > 0) {
  }

  // The reused slot must serve as a fresh admission connection: reading
  // frames past the first and answering all of them, not closing after
  // one the way a scrape does.
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(0.5, 1));
  send_request(fd.get(), request_at(0.6, 2));
  send_flush(fd.get());
  std::vector<std::uint64_t> ids;
  Frame f;
  for (;;) {
    ASSERT_TRUE(read_frame(fd.get(), f));
    if (f.header.type == FrameType::kFlush) break;
    ASSERT_EQ(f.header.type, FrameType::kResponse);
    ResponseFrame r;
    ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
              WireError::kNone);
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(EventLoopTest, StopSealsTelemetryAndReportsResult) {
  start();
  UniqueFd fd = connect_client(server_->admission_port());
  send_request(fd.get(), request_at(0.5, 1));
  send_request(fd.get(), request_at(1.5, 2));
  send_flush(fd.get());
  Frame f;
  while (read_frame(fd.get(), f) && f.header.type != FrameType::kFlush) {
  }

  server_->request_stop();
  thread_.join();
  EXPECT_TRUE(server_->service().drained());
  const serve::ServerResult result = server_->result();
  ASSERT_EQ(result.telemetry.size(), 2u);  // seconds 0 and 1
  EXPECT_EQ(result.total_decisions, 2);
  EXPECT_GE(result.wall_s, 0.0);
}

TEST_F(EventLoopTest, BurstIsAnsweredInFewWrites) {
  MetricsOn metrics;
  NetConfig net;
  net.flush_idle_s = 3600.0;  // only the FLUSH closes batches
  start(net);
  UniqueFd fd = connect_client(server_->admission_port());
  // Warm-up round trip: the accept and its bookkeeping happen before the
  // counters are read.
  send_flush(fd.get());
  Frame f;
  ASSERT_TRUE(read_frame(fd.get(), f));
  ASSERT_EQ(f.header.type, FrameType::kFlush);

  constexpr int kBurst = 512;
  const std::vector<std::uint8_t> burst =
      encode_burst(/*first_id=*/0, kBurst, /*flush=*/true);
  const std::uint64_t frames0 = counter("net.frames_out");
  const std::uint64_t writes0 = counter("net.write_calls");
  send_all(fd.get(), burst.data(), burst.size());

  int responses = 0;
  for (;;) {
    ASSERT_TRUE(read_frame(fd.get(), f));
    if (f.header.type == FrameType::kFlush) break;
    ASSERT_EQ(f.header.type, FrameType::kResponse);
    ++responses;
  }
  EXPECT_EQ(responses, kBurst);
  EXPECT_EQ(counter("net.frames_out") - frames0, kBurst + 1u);
  // Responses are coalesced per loop pass; one write per frame would be
  // 513.
  EXPECT_LE(counter("net.write_calls") - writes0, 16u);
}

TEST_F(EventLoopTest, StopAnswersRequestsStillInOpenBatches) {
  MetricsOn metrics;
  NetConfig net;
  net.flush_idle_s = 3600.0;  // nothing closes the batches before stop
  start(net);
  UniqueFd fd = connect_client(server_->admission_port());
  constexpr int kRequests = 10;
  const std::uint64_t frames_in0 = counter("net.frames_in");
  for (int i = 0; i < kRequests; ++i)
    send_request(fd.get(), request_at(0.1 + 0.001 * i, 300 + i));
  // The server must have read every request before the stop, or the
  // drain has nothing to decide.
  ASSERT_TRUE(wait_for_counter("net.frames_in", frames_in0 + kRequests));

  server_->request_stop();
  std::vector<std::uint64_t> ids;
  Frame f;
  while (read_frame(fd.get(), f)) {
    ASSERT_EQ(f.header.type, FrameType::kResponse);
    ResponseFrame r;
    ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
              WireError::kNone);
    ids.push_back(r.id);
  }
  thread_.join();
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) EXPECT_EQ(ids[i], 300u + i) << i;
}

TEST_F(EventLoopTest, SlowReaderGetsEveryResponseInOrder) {
  MetricsOn metrics;
  start(quick_net(), /*shards=*/1);  // one shard answers in id order

  // A small receive buffer keeps the client's window small; the server's
  // send buffer (which the kernel may grow to megabytes) fills next, and
  // only then does the server's backlog pass the high watermark.
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  const int rcvbuf = 4096;
  setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  timeval tv{5, 0};
  setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->admission_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0)
      << std::strerror(errno);

  const std::uint64_t pauses0 = counter("net.backpressure_pauses");
  const std::uint64_t closed0 = counter("net.closed");
  // The writer streams bursts without reading until the server pauses,
  // then ends with a FLUSH.  It blocks while the server is paused and
  // finishes once the reader below drains the backlog (or fails on the
  // send timeout, so a failed read cannot leave it hanging).
  constexpr int kBurst = 512;
  constexpr int kMaxRequests = 1 << 20;  // ~32 MiB of responses
  std::atomic<bool> stop{false};
  int sent = 0;
  std::thread writer([&] {
    while (sent < kMaxRequests && !stop.load()) {
      const std::vector<std::uint8_t> burst =
          encode_burst(static_cast<std::uint64_t>(sent), kBurst,
                       /*flush=*/false);
      send_all(fd.get(), burst.data(), burst.size());
      sent += kBurst;
    }
    send_flush(fd.get());
  });
  EXPECT_TRUE(wait_for_counter("net.backpressure_pauses", pauses0 + 1));
  stop.store(true);

  std::uint64_t next = 0;
  bool flush_seen = false;
  [&] {
    Frame f;
    while (read_frame(fd.get(), f)) {
      if (f.header.type == FrameType::kFlush) {
        flush_seen = true;
        return;
      }
      ASSERT_EQ(f.header.type, FrameType::kResponse);
      ResponseFrame r;
      ASSERT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
                WireError::kNone);
      ASSERT_EQ(r.id, next);
      ++next;
    }
  }();
  writer.join();
  EXPECT_TRUE(flush_seen);
  EXPECT_EQ(next, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(counter("net.closed"), closed0);  // never dropped
  EXPECT_GE(counter("net.backpressure_pauses"), pauses0 + 1);
}

TEST(NetConfigValidate, RejectsNonsense) {
  serve::ServerConfig serve_config;
  serve_config.scenario = workload::catalog_scenario("paper-grid");
  NetConfig net;
  net.pending_cap = 0;
  EXPECT_THROW(NetServer(serve_config, net), ConfigError);
  net = {};
  net.flush_idle_s = -1.0;
  EXPECT_THROW(NetServer(serve_config, net), ConfigError);
}

TEST(NetServerBind, PortCollisionReportsStrerror) {
  serve::ServerConfig serve_config;
  serve_config.scenario = workload::catalog_scenario("paper-grid");
  NetConfig net;
  net.port = 0;
  NetServer first(serve_config, net);
  net.port = first.admission_port();  // already bound
  try {
    NetServer second(serve_config, net);
    FAIL() << "bind collision should throw";
  } catch (const SocketError& e) {
    EXPECT_NE(std::string(e.what()).find("bind"), std::string::npos);
    EXPECT_NE(e.code(), 0);
  }
}

}  // namespace
}  // namespace facsp::net
