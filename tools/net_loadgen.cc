// Load generator / reference client for the decision server's socket
// front-end (docs/serving.md, "Network front-end").
//
//   $ ./decision_server --listen 7001 --shards 4 &
//   $ ./net_loadgen --port 7001 --trace storm.trace.csv
//
// Streams a recorded trace (scenario_runner trace record) over one TCP
// connection in arrival order, interleaving writes with response reads so
// neither side's buffers can deadlock, sends one FLUSH barrier after the
// last request, and reads until the flush echo arrives — at which point
// every decision for this connection has been received.  Prints a one-line
// summary (sent / admitted / dropped / throughput) and exits nonzero on
// any protocol error, server error frame, or response shortfall.
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/config_io.h"
#include "net/frame.h"
#include "net/socket.h"
#include "serve/trace.h"

using namespace facsp;

namespace {

int usage(const char* argv0, FILE* dst) {
  std::fprintf(
      dst,
      "usage: %s --port <port> --trace <trace.csv> [options]\n"
      "\n"
      "  --host <addr>       server address (default 127.0.0.1)\n"
      "  --port <port>       admission port (required)\n"
      "  --trace <file>      recorded trace to stream (required; see\n"
      "                      'scenario_runner trace record')\n"
      "  --repeat <n>        stream the trace n times, each pass shifted\n"
      "                      past the previous one in simulated time\n"
      "                      (default 1)\n"
      "  --timeout <s>       give up if the socket makes no progress for\n"
      "                      this long (default 30)\n"
      "  --quiet             summary line only\n"
      "  --help              this message\n",
      argv0);
  return dst == stderr ? 2 : 0;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Stats {
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;
};

int run(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  std::string trace_path;
  int repeat = 1;
  double timeout_s = 30.0;
  bool quiet = false;

  core::FlagReader flags(argc, argv);
  while (flags.next()) {
    if (flags.is("--help")) return usage(argv[0], stdout);
    if (flags.is("--host"))
      host = flags.value();
    else if (flags.is("--port"))
      port = flags.int_value();
    else if (flags.is("--trace"))
      trace_path = flags.value();
    else if (flags.is("--repeat"))
      repeat = flags.int_value();
    else if (flags.is("--timeout"))
      timeout_s = flags.double_value();
    else if (flags.is("--quiet"))
      quiet = true;
    else
      flags.unknown();
  }
  if (port < 0) throw ConfigError("--port is required");
  if (trace_path.empty()) throw ConfigError("--trace is required");
  if (repeat < 1) throw ConfigError("--repeat must be >= 1");

  const std::vector<serve::StampedRequest> trace =
      serve::read_trace_file(trace_path);
  if (trace.empty()) throw ConfigError("trace '" + trace_path + "' is empty");
  // Each repeat pass starts one whole second past the previous pass's last
  // arrival, so the stream stays nondecreasing (the server enforces it).
  const double pass_shift = std::floor(trace.back().req.now) + 1.0;

  // Pre-encode the full stream: N passes of request frames + one trailing
  // FLUSH barrier.  Encoding up front keeps the socket loop allocation-free
  // and makes throughput numbers about the server, not the client.
  const std::size_t total =
      trace.size() * static_cast<std::size_t>(repeat);
  std::vector<std::uint8_t> out;
  out.resize(total * net::kRequestFrameSize + net::kFlushFrameSize);
  std::uint8_t* w = out.data();
  for (int pass = 0; pass < repeat; ++pass) {
    const double shift = pass_shift * pass;
    for (const serve::StampedRequest& r : trace) {
      serve::StampedRequest shifted = r;
      shifted.req.now += shift;
      net::encode_header(
          {static_cast<std::uint32_t>(net::kRequestPayloadSize),
           net::FrameType::kRequest, net::kProtocolVersion, 0},
          w);
      net::encode_request(shifted, w + net::kHeaderSize);
      w += net::kRequestFrameSize;
    }
  }
  net::encode_header({0, net::FrameType::kFlush, net::kProtocolVersion, 0}, w);

  if (!quiet)
    std::printf("streaming %zu requests (%zu x %d) to %s:%d\n", total,
                trace.size(), repeat, host.c_str(), port);

  net::UniqueFd fd = net::connect_tcp(host, static_cast<std::uint16_t>(port));
  net::set_nonblocking(fd.get());

  Stats stats;
  std::vector<std::uint8_t> in;
  in.reserve(64 * 1024);
  std::size_t in_off = 0;   // parse cursor into `in`
  std::size_t sent = 0;     // bytes of `out` written so far
  bool flushed = false;     // server echoed the FLUSH barrier
  const double t0 = wall_s();
  double last_progress = t0;

  while (!flushed) {
    pollfd p{};
    p.fd = fd.get();
    p.events = POLLIN;
    if (sent < out.size()) p.events |= POLLOUT;
    const int rc = ::poll(&p, 1, 250);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw net::SocketError("poll", host, errno);
    }
    if (rc == 0) {
      if (wall_s() - last_progress > timeout_s)
        throw ConfigError("timed out waiting for the server");
      continue;
    }

    if ((p.revents & POLLOUT) && sent < out.size()) {
      const ssize_t n = ::write(fd.get(), out.data() + sent,
                                out.size() - sent);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          throw net::SocketError("write", host, errno);
      } else if (n > 0) {
        sent += static_cast<std::size_t>(n);
        last_progress = wall_s();
      }
    }

    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      std::uint8_t buf[64 * 1024];
      const ssize_t n = ::read(fd.get(), buf, sizeof buf);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          throw net::SocketError("read", host, errno);
      } else if (n == 0) {
        throw ConfigError("server closed the connection mid-stream");
      } else {
        in.insert(in.end(), buf, buf + n);
        last_progress = wall_s();
      }
    }

    // Parse every complete frame buffered so far.
    while (in.size() - in_off >= net::kHeaderSize) {
      const net::FrameHeader h = net::decode_header(in.data() + in_off);
      const net::WireError hv = net::validate_header(h);
      if (hv != net::WireError::kNone)
        throw ConfigError(std::string("bad frame from server: ") +
                          net::wire_error_name(hv));
      if (in.size() - in_off < net::kHeaderSize + h.len) break;
      const std::uint8_t* payload = in.data() + in_off + net::kHeaderSize;
      switch (h.type) {
        case net::FrameType::kResponse: {
          net::ResponseFrame r;
          if (net::decode_response(payload, h.len, r) != net::WireError::kNone)
            throw ConfigError("undecodable response frame");
          ++stats.responses;
          if (r.admitted) ++stats.admitted;
          break;
        }
        case net::FrameType::kDropped:
          ++stats.dropped;
          break;
        case net::FrameType::kError: {
          net::ErrorFrame e;
          net::decode_error(payload, h.len, e);
          throw ConfigError(std::string("server error frame: ") +
                            net::wire_error_name(e.code) + " (detail " +
                            std::to_string(e.detail) + ")");
        }
        case net::FrameType::kFlush:
          flushed = true;
          break;
        default:
          throw ConfigError("unexpected frame type from server");
      }
      in_off += net::kHeaderSize + h.len;
      // Reclaim parsed bytes once the buffer has no partial frame tail.
      if (in_off == in.size()) {
        in.clear();
        in_off = 0;
      }
    }
  }
  const double elapsed = wall_s() - t0;
  stats.sent = total;

  std::printf(
      "sent %llu  responses %llu  admitted %llu (%.1f%%)  dropped %llu  "
      "%.3f s  %.0f req/s\n",
      static_cast<unsigned long long>(stats.sent),
      static_cast<unsigned long long>(stats.responses),
      static_cast<unsigned long long>(stats.admitted),
      stats.responses > 0
          ? 100.0 * static_cast<double>(stats.admitted) /
                static_cast<double>(stats.responses)
          : 0.0,
      static_cast<unsigned long long>(stats.dropped), elapsed,
      elapsed > 0 ? static_cast<double>(stats.sent) / elapsed : 0.0);

  if (stats.responses + stats.dropped != stats.sent) {
    std::fprintf(stderr,
                 "error: %llu requests unaccounted for (responses + drops "
                 "!= sent)\n",
                 static_cast<unsigned long long>(
                     stats.sent - stats.responses - stats.dropped));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return core::run_cli(argc, argv, run, usage);
}
