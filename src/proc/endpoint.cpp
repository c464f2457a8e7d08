#include "proc/endpoint.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <string>
#include <thread>

#include "net/frame.hpp"

namespace paso::proc {

namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;

using Clock = std::chrono::steady_clock;

/// Outbound high-water mark: stop emitting acks while this many bytes are
/// already waiting for the broker to read, so a stalled broker bounds the
/// child's memory too.
constexpr std::size_t kOutHighWater = 1u << 20;

int connect_to_broker(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // The broker listens before spawning, so one attempt normally succeeds;
  // retry briefly to ride out a slow accept queue.
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Nonblocking-safe write of as much of [buf+off, end) as the socket takes.
/// Returns false on a dead connection.
bool flush_some(int fd, const std::string& buf, std::size_t& off) {
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

int machine_endpoint_main(const EndpointConfig& config) {
  const int fd = connect_to_broker(config.port);
  if (fd < 0) return 2;

  // One decoder for the connection's whole life: the broker may coalesce
  // the HelloAck and the first kMsg frames into a single TCP segment, so
  // bytes fed during the handshake can already hold post-handshake frames —
  // a second decoder would silently swallow them. The endpoint acks kMsg
  // frames by seq and never reads the filler payload, so skip extracting
  // it: no per-frame allocation on the hot path.
  FrameDecoder decoder;
  decoder.set_skip_payload(true);

  // Handshake (still blocking): Hello out, HelloAck back.
  {
    std::string hello;
    Frame frame;
    frame.type = FrameType::kHello;
    frame.machine = config.machine;
    frame.seq = config.token;
    net::encode_frame(frame, hello);
    std::size_t off = 0;
    while (off < hello.size()) {
      const ssize_t n =
          ::send(fd, hello.data() + off, hello.size() - off, MSG_NOSIGNAL);
      if (n <= 0 && errno != EINTR) {
        ::close(fd);
        return 2;
      }
      if (n > 0) off += static_cast<std::size_t>(n);
    }
    bool acked = false;
    while (!acked) {
      char buf[256];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        ::close(fd);
        return 2;  // broker rejected us (bad token) or died
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
      for (;;) {
        const net::DecodeResult r = decoder.next();
        if (r.error != net::FrameErrorKind::kNone) {
          ::close(fd);
          return 3;
        }
        if (!r.has_frame) break;
        if (r.frame.type == FrameType::kHelloAck) {
          acked = true;
          break;
        }
      }
    }
  }

  // Main loop: nonblocking from here on.
  {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  std::deque<std::uint64_t> ingress;  // kMsg seqs awaiting their ack
  std::string outbuf;
  std::size_t out_off = 0;
  bool draining = false;

  // Frames already buffered (or newly fed) in the decoder become ingress
  // entries / state flags; false means the stream is corrupt.
  const auto drain_decoder = [&]() -> bool {
    for (;;) {
      const net::DecodeResult r = decoder.next();
      if (r.error != net::FrameErrorKind::kNone) return false;
      if (!r.has_frame) return true;
      switch (r.frame.type) {
        case FrameType::kMsg:
          ingress.push_back(r.frame.seq);
          break;
        case FrameType::kShutdown:
          draining = true;
          break;
        default:
          break;  // HelloAck duplicates etc. are harmless
      }
    }
  };
  // Frames that rode in on the same segment as the HelloAck.
  if (!drain_decoder()) {
    ::close(fd);
    return 3;
  }
  const auto interval = std::chrono::microseconds(
      config.heartbeat_interval_us > 0 ? config.heartbeat_interval_us
                                       : 25'000);
  Clock::time_point next_beat = Clock::now();

  for (;;) {
    // Beacon first so a long poll below cannot starve liveness.
    const Clock::time_point now = Clock::now();
    if (now >= next_beat) {
      Frame beat;
      beat.type = FrameType::kHeartbeat;
      beat.machine = config.machine;
      net::encode_frame(beat, outbuf);
      next_beat = now + interval;
    }

    // Ack phase: FIFO drain of the ingress, bounded by the out high-water.
    while (!ingress.empty() && outbuf.size() - out_off < kOutHighWater) {
      Frame ack;
      ack.type = FrameType::kDeliver;
      ack.machine = config.machine;
      ack.seq = ingress.front();
      ingress.pop_front();
      net::encode_frame(ack, outbuf);
    }
    if (out_off > 0 && out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }

    if (draining && ingress.empty()) {
      Frame bye;
      bye.type = FrameType::kBye;
      bye.machine = config.machine;
      net::encode_frame(bye, outbuf);
      // Best-effort flush with a short deadline, then leave: the broker
      // treats EOF after shutdown as a clean exit too.
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(2);
      while (out_off < outbuf.size() && Clock::now() < deadline) {
        if (!flush_some(fd, outbuf, out_off)) break;
        if (out_off < outbuf.size()) {
          pollfd pw{fd, POLLOUT, 0};
          ::poll(&pw, 1, 50);
        }
      }
      ::close(fd);
      return 0;
    }

    pollfd p{};
    p.fd = fd;
    p.events = 0;
    // Backpressure-aware read: a full ingress parks POLLIN, so the kernel
    // receive buffer fills and TCP carrier-senses back onto the broker.
    if (ingress.size() < kIngressCapacity) p.events |= POLLIN;
    if (out_off < outbuf.size()) p.events |= POLLOUT;
    const auto until_beat = std::chrono::duration_cast<std::chrono::milliseconds>(
        next_beat - Clock::now());
    const int timeout_ms =
        static_cast<int>(until_beat.count() < 0 ? 0 : until_beat.count()) + 1;
    const int ready = ::poll(&p, 1, timeout_ms);
    if (ready < 0 && errno != EINTR) {
      ::close(fd);
      return 3;
    }

    if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
      // Broker side gone: for a machine process that is a clean end of life.
      ::close(fd);
      return 0;
    }
    if (p.revents & POLLOUT) {
      if (!flush_some(fd, outbuf, out_off)) {
        ::close(fd);
        return 0;
      }
    }
    if (p.revents & POLLIN) {
      char buf[65536];
      for (;;) {
        if (ingress.size() >= kIngressCapacity) break;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n == 0) {
          ::close(fd);
          return 0;  // broker closed: clean exit
        }
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          ::close(fd);
          return 0;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
        if (!drain_decoder()) {
          ::close(fd);
          return 3;  // corrupt stream: die loudly, the supervisor notices
        }
      }
    }
  }
}

}  // namespace paso::proc
