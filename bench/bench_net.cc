// Socket front-end benchmarks (google-benchmark) plus the steady-state
// allocation audit for the socket serve path.
//
// BM_FrameDecodeRequest / BM_FrameEncodeResponse price the wire format
// itself — a handful of nanoseconds per frame, no allocation.
// BM_NetLoopbackDecide is the end-to-end number: a real client streaming
// length-prefixed frames over loopback TCP into the event loop, through
// AdmissionService batching into decide_batch, responses framed back.
//
// The allocation audit replaces global operator new with a counting
// version (same idiom as bench_server.cc, and the reason this lives in
// its own binary).  After a warm-up pass that absorbs every one-time cost
// (connection slot, fd tables, poller event arrays, response routing map),
// it streams the same synthetic load for N and then 2N simulated seconds
// over a persistent connection and requires IDENTICAL allocation counts:
// the extra N seconds of accept/read/decode/batch/decide/encode/write
// must not allocate a single time on either side of the socket.
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include <benchmark/benchmark.h>
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "workload/catalog.h"

namespace {

using namespace facsp;

serve::ServerConfig serve_config() {
  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario.seed = 42;
  config.shards = 4;
  config.threads = 1;
  return config;
}

serve::StampedRequest sample_request(double t, std::uint64_t id) {
  serve::StampedRequest r;
  r.req.now = t;
  r.req.id = id;
  r.req.bandwidth = 1.0;
  r.req.speed_kmh = 40.0;
  r.req.angle_deg = 12.0;
  r.req.distance_m = 250.0;
  r.req.mobile.position.x = 50.0;
  r.req.mobile.position.y = 80.0;
  r.req.mobile.heading_deg = 90.0;
  r.req.mobile.speed_kmh = 40.0;
  r.holding_s = 90.0;
  return r;
}

void BM_FrameDecodeRequest(benchmark::State& state) {
  std::uint8_t buf[net::kRequestPayloadSize];
  net::encode_request(sample_request(1.5, 7), buf);
  serve::StampedRequest out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::decode_request(buf, sizeof buf, out));
    benchmark::DoNotOptimize(out.req.id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameDecodeRequest);

void BM_FrameEncodeResponse(benchmark::State& state) {
  cac::AdmissionDecision d;
  d.admitted = true;
  d.score = 0.42;
  d.verdict = static_cast<cac::Verdict>(4);
  std::uint8_t buf[net::kResponsePayloadSize];
  for (auto _ : state) {
    net::encode_response(99, d, buf);
    benchmark::DoNotOptimize(buf[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameEncodeResponse);

/// Encode `count` requests at `rate` req/s starting at `t0` into a frame
/// stream, FLUSH-terminated.
std::vector<std::uint8_t> encode_stream(double t0, std::size_t count,
                                        double rate) {
  std::vector<std::uint8_t> out(count * net::kRequestFrameSize +
                                net::kFlushFrameSize);
  std::uint8_t* w = out.data();
  for (std::size_t i = 0; i < count; ++i) {
    net::encode_header({static_cast<std::uint32_t>(net::kRequestPayloadSize),
                        net::FrameType::kRequest, net::kProtocolVersion, 0},
                       w);
    net::encode_request(
        sample_request(t0 + static_cast<double>(i) / rate, i + 1),
        w + net::kHeaderSize);
    w += net::kRequestFrameSize;
  }
  net::encode_header({0, net::FrameType::kFlush, net::kProtocolVersion, 0}, w);
  return out;
}

/// Write the stream while draining responses (fixed stack buffers, no
/// allocation), until the FLUSH echo.  Returns the response count.
///
/// The fd must be non-blocking and the loop poll-driven: a blocking
/// client that alternates write/read deadlocks whenever a chunk ends
/// before any batch closes (the server rightly has nothing to say yet,
/// and its read timeout would eventually drop the stalled connection).
std::size_t pump(int fd, const std::uint8_t* out, std::size_t out_len) {
  std::size_t sent = 0;
  std::uint8_t in[64 * 1024];
  std::size_t in_len = 0;
  std::size_t responses = 0;
  bool flushed = false;
  while (!flushed) {
    pollfd p{fd, POLLIN, 0};
    if (sent < out_len) p.events |= POLLOUT;
    if (::poll(&p, 1, 30000) <= 0) {
      std::fprintf(stderr, "pump: poll stalled: %s\n", std::strerror(errno));
      std::exit(1);
    }
    if ((p.revents & POLLOUT) != 0 && sent < out_len) {
      const std::size_t chunk = std::min<std::size_t>(out_len - sent, 65536);
      const ssize_t w = ::write(fd, out + sent, chunk);
      if (w > 0) {
        sent += static_cast<std::size_t>(w);
      } else if (w < 0 && errno != EINTR && errno != EAGAIN) {
        std::fprintf(stderr, "pump: write failed: %s\n", std::strerror(errno));
        std::exit(1);
      }
    }
    const ssize_t r = ::read(fd, in + in_len, sizeof in - in_len);
    if (r > 0) {
      in_len += static_cast<std::size_t>(r);
    } else if (r == 0) {
      std::fprintf(stderr, "pump: server closed the connection mid-stream\n");
      std::exit(1);
    } else if (errno != EINTR && errno != EAGAIN) {
      std::fprintf(stderr, "pump: read failed: %s\n", std::strerror(errno));
      std::exit(1);
    }
    std::size_t off = 0;
    while (in_len - off >= net::kHeaderSize) {
      const net::FrameHeader h = net::decode_header(in + off);
      if (in_len - off < net::kHeaderSize + h.len) break;
      if (h.type == net::FrameType::kError) {
        net::ErrorFrame e;
        net::decode_error(in + off + net::kHeaderSize, h.len, e);
        std::fprintf(stderr, "pump: server error frame: %s (detail %u)\n",
                     net::wire_error_name(e.code), e.detail);
        std::exit(1);
      }
      if (h.type == net::FrameType::kResponse) ++responses;
      if (h.type == net::FrameType::kFlush) flushed = true;
      off += net::kHeaderSize + h.len;
    }
    if (off > 0) {
      std::memmove(in, in + off, in_len - off);
      in_len -= off;
    }
  }
  return responses;
}

class LoopbackServer {
 public:
  LoopbackServer() : server_(make_server()) {
    thread_ = std::thread([this] { server_->run(); });
  }
  ~LoopbackServer() {
    server_->request_stop();
    thread_.join();
    delete server_;
  }
  std::uint16_t port() const { return server_->admission_port(); }

 private:
  static net::NetServer* make_server() {
    net::NetConfig cfg;
    cfg.port = 0;
    cfg.flush_idle_s = 3600.0;  // only FLUSH frames close tail batches
    cfg.pending_cap = 1 << 16;
    return new net::NetServer(serve_config(), cfg);
  }
  net::NetServer* server_;
  std::thread thread_;
};

void BM_NetLoopbackDecide(benchmark::State& state) {
  LoopbackServer server;
  net::UniqueFd fd = net::connect_tcp("127.0.0.1", server.port());
  net::set_nonblocking(fd.get());
  constexpr std::size_t kBatch = 4096;
  constexpr double kRate = 50000.0;
  std::vector<std::uint8_t> stream = encode_stream(0.0, kBatch, kRate);
  double base = kBatch / kRate + 1.0;
  std::int64_t decisions = 0;
  for (auto _ : state) {
    // Re-stamp arrival times so simulated time keeps advancing across
    // iterations (the server enforces nondecreasing arrivals).
    std::uint8_t* w = stream.data();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const double t = base + static_cast<double>(i) / kRate;
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(t);
      for (int b = 0; b < 8; ++b)
        w[net::kHeaderSize + b] = static_cast<std::uint8_t>(bits >> (8 * b));
      w += net::kRequestFrameSize;
    }
    base += kBatch / kRate + 1.0;
    decisions +=
        static_cast<std::int64_t>(pump(fd.get(), stream.data(), stream.size()));
  }
  state.SetItemsProcessed(decisions);
}
BENCHMARK(BM_NetLoopbackDecide)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- steady-state allocation audit -----------------------------------------

/// Stream `seconds` of synthetic load over `fd` starting at simulated time
/// `t0`; the stream is pre-encoded OUTSIDE the counted window.  Returns
/// allocations made (both threads) while the wire was active.
std::size_t stream_allocs(int fd, double t0, std::int64_t seconds) {
  constexpr double kRate = 2000.0;
  const std::size_t count =
      static_cast<std::size_t>(seconds) * static_cast<std::size_t>(kRate);
  const std::vector<std::uint8_t> stream = encode_stream(t0, count, kRate);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const std::size_t responses = pump(fd, stream.data(), stream.size());
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  if (responses != count) {
    std::fprintf(stderr, "audit: %zu responses for %zu requests\n", responses,
                 count);
    std::exit(1);
  }
  return after - before;
}

int audit() {
  LoopbackServer server;
  net::UniqueFd fd = net::connect_tcp("127.0.0.1", server.port());
  net::set_nonblocking(fd.get());
  // Warm-up absorbs every one-time cost: connection slot and buffers, fd
  // tables, poller arrays, response-routing map, registry entries.
  (void)stream_allocs(fd.get(), 0.0, 2);
  const std::size_t short_run = stream_allocs(fd.get(), 10.0, 4);
  const std::size_t long_run = stream_allocs(fd.get(), 20.0, 8);
  if (long_run != short_run) {
    std::fprintf(stderr,
                 "socket steady-state allocation audit FAILED: 4 s streamed "
                 "%zu allocations, 8 s streamed %zu — the extra seconds "
                 "allocated %zu times\n",
                 short_run, long_run, long_run - short_run);
    return 1;
  }
  // stderr so --benchmark_format=json output stays parseable.
  std::fprintf(
      stderr,
      "socket steady-state allocation audit passed: %zu allocations for 4 s "
      "and for 8 s of wire traffic (extra seconds allocated nothing)\n",
      short_run);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A server-side close between our write and read must surface as EPIPE,
  // not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (const int rc = audit(); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
