#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <utility>

#include "common/require.hpp"
#include "proc/spawn.hpp"

namespace paso::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kInvalidMachine = static_cast<std::size_t>(-1);
/// Deadline for machine processes to connect and complete the
/// Hello/HelloAck handshake, at construction and per respawn.
constexpr long kHandshakeTimeoutUs = 10'000'000;

std::uint64_t fresh_token() {
  // Tokens only need to make a stray/stale connection implausible, not be
  // cryptographic: a respawned machine must not be impersonated by the old
  // incarnation's half-dead socket.
  static std::mt19937_64 gen{std::random_device{}() ^
                             static_cast<std::uint64_t>(::getpid())};
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::uint64_t t = gen();
  return t == 0 ? 1 : t;
}

void set_nonblocking_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int make_listener(std::uint16_t& port_out, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // ephemeral: the kernel picks, children get told
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port_out = ntohs(addr.sin_port);
  set_nonblocking_nodelay(fd);
  return fd;
}

}  // namespace

SocketTransport::SocketTransport(CostModel model, std::size_t n,
                                 Topology topology,
                                 SocketTransportOptions options)
    : RealClockTransport(model, n, topology),
      options_(options),
      crossing_inflight_(topology_.segment_count()) {
  listen_fd_ = make_listener(port_, static_cast<int>(n) + 8);
  PASO_REQUIRE(listen_fd_ >= 0, "socket transport: cannot listen");
  PASO_REQUIRE(::pipe(wake_pipe_) == 0, "socket transport: cannot make pipe");
  set_nonblocking_nodelay(wake_pipe_[0]);
  set_nonblocking_nodelay(wake_pipe_[1]);

  for (std::size_t m = 0; m < n; ++m) {
    endpoints_.push_back(std::make_unique<Endpoint>());
    endpoints_.back()->token.store(fresh_token(), std::memory_order_relaxed);
    endpoints_.back()->dead.store(true, std::memory_order_relaxed);
  }

  supervisor_ = std::make_unique<proc::Supervisor>(
      n, options_.heartbeat_timeout_us);
  supervisor_->set_death_hook(
      [this](std::uint32_t machine, const std::string& reason) {
        handle_peer_death(machine, reason);
      });

  // Fork every machine process BEFORE this process grows any threads: the
  // children continue from fork() into the endpoint loop, which is only
  // sound from an effectively single-threaded parent.
  for (std::uint32_t m = 0; m < n; ++m) {
    PASO_REQUIRE(spawn_endpoint(m), "socket transport: spawn failed");
  }

  PASO_REQUIRE(await_handshakes(n, kHandshakeTimeoutUs),
               "socket transport: machine processes failed to hand-shake");

  // Only now (children forked, endpoints attached) does the broker grow
  // threads: the timer loop, the supervisor monitor, IO and dispatch.
  start_executor();
  supervisor_->start();
  io_thread_ = std::thread([this] { io_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
}

SocketTransport::~SocketTransport() { shutdown(); }

bool SocketTransport::spawn_endpoint(std::uint32_t machine) {
  proc::EndpointConfig endpoint;
  endpoint.port = port_;
  endpoint.machine = machine;
  endpoint.token = endpoints_[machine]->token.load(std::memory_order_acquire);
  endpoint.heartbeat_interval_us = options_.heartbeat_interval_us;
  const int pid = proc::spawn_machine_process(endpoint);
  if (pid <= 0) return false;
  supervisor_->adopt(machine, pid);
  return true;
}

void SocketTransport::set_peer_death_hook(PeerDeathHook hook) {
  death_hook_ = std::move(hook);
}

int SocketTransport::child_pid(MachineId m) const {
  return supervisor_->pid_of(static_cast<std::uint32_t>(m.value));
}

bool SocketTransport::endpoint_alive(MachineId m) const {
  PASO_REQUIRE(m.value < endpoints_.size(), "unknown machine");
  return !endpoints_[m.value]->dead.load(std::memory_order_acquire);
}

bool SocketTransport::transmit(MachineId to, const Price& price,
                               std::size_t bytes, Delivery&& deliver,
                               DomainMask domain) {
  const bool crossing = price.crossing();
  const std::uint32_t dst_segment = price.to_segment;
  if (crossing) {
    // Bounded bridge ingress: the broker mirrors the destination process's
    // ingress occupancy as an in-flight crossing credit per segment (frames
    // sent, ack not yet back). Senders holding disjoint shard domains race
    // for the same credit, so check-and-reserve is one atomic step: a CAS
    // that increments only below the cap. At the cap the crossing is shed
    // at transmission begin.
    const std::size_t cap = topology_.bounded_bridges()
                                ? topology_.bridge_capacity()
                                : kUnboundedBridge;
    std::atomic<std::size_t>& credit = crossing_inflight_[dst_segment];
    std::size_t held = credit.load(std::memory_order_acquire);
    do {
      if (held >= cap) return false;
    } while (!credit.compare_exchange_weak(held, held + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire));
  }

  Endpoint& ep = *endpoints_[to.value];
  if (ep.dead.load(std::memory_order_acquire)) {
    // The destination's process is gone but the protocol crash hasn't
    // propagated yet (or the machine stayed down): the transmission is
    // charged, the delivery silently dropped — the crash-fault model's
    // "destination down => drop", surfaced at the wire instead of at
    // execution time. Return the crossing credit: nothing is in flight.
    if (crossing) {
      crossing_inflight_[dst_segment].fetch_sub(1, std::memory_order_acq_rel);
    }
    return true;  // `deliver` destroyed by the caller, under its shards
  }

  inflight_.fetch_add(1, std::memory_order_acq_rel);
  {
    // seq is assigned under io_mu_: the caller holds its domain's shards,
    // which need not include the destination's bit, so concurrent senders
    // toward the same endpoint serialize here, not on the stack lock.
    std::lock_guard<std::mutex> lock(io_mu_);
    const std::uint64_t seq = ep.next_seq++;
    ep.pending.push_back(
        {seq, crossing, dst_segment,
         Sealed{std::move(deliver), domain,
                static_cast<std::uint32_t>(to.value)}});
    append_wire(ep, FrameType::kMsg, static_cast<std::uint32_t>(to.value), seq,
                bytes);
  }
  wake_io();
  return true;
}

void SocketTransport::append_wire(Endpoint& ep, FrameType type,
                                  std::uint32_t machine, std::uint64_t seq,
                                  std::size_t payload_bytes) {
  // Slab size trades pool memory against iovec count: 64 KiB holds ~hundreds
  // of typical frames, so even a large burst flushes in one writev.
  constexpr std::size_t kSlabBytes = 64 * 1024;
  const std::size_t need = 4 + kFrameHeaderBytes + payload_bytes;
  if (ep.outq.empty() || ep.outq.back().size() + need > kSlabBytes) {
    if (!slab_pool_.empty()) {
      ep.outq.push_back(std::move(slab_pool_.back()));
      slab_pool_.pop_back();
    } else {
      ep.outq.emplace_back();
      ep.outq.back().reserve(kSlabBytes);
    }
  }
  std::string& slab = ep.outq.back();
  encode_frame_header(type, machine, seq, payload_bytes, slab);
  // kMsg payloads are all-zero filler of the declared wire size: append
  // zeros straight into the slab instead of materializing a payload string.
  slab.append(payload_bytes, '\0');
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
}

void SocketTransport::put_slab(std::string&& slab) {
  // Cap the pool so a one-off burst doesn't pin its high-water mark forever.
  constexpr std::size_t kMaxPooledSlabs = 64;
  if (slab_pool_.size() >= kMaxPooledSlabs) return;  // let it free
  slab.clear();  // keeps capacity
  slab_pool_.push_back(std::move(slab));
}

void SocketTransport::flush_endpoint(Endpoint& ep) {
  // Vectored flush: every slab queued for this endpoint leaves in a single
  // writev when the kernel buffer allows — all frames queued while the wire
  // was busy coalesce into one syscall (the frames_sent/write_syscalls
  // ratio measures exactly this).
  constexpr std::size_t kMaxIov = 64;
  while (!ep.outq.empty()) {
    iovec iov[kMaxIov];
    std::size_t n_iov = 0;
    std::size_t queued = 0;
    for (const std::string& slab : ep.outq) {
      if (n_iov == kMaxIov) break;
      const std::size_t off = n_iov == 0 ? ep.out_off : 0;
      iov[n_iov].iov_base = const_cast<char*>(slab.data() + off);
      iov[n_iov].iov_len = slab.size() - off;
      queued += iov[n_iov].iov_len;
      ++n_iov;
    }
    const ssize_t n = ::writev(ep.fd, iov, static_cast<int>(n_iov));
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN (kernel buffer full) or a dying socket — reads deliver the
      // verdict; POLLOUT re-arms while the queue is nonempty.
      return;
    }
    write_syscalls_.fetch_add(1, std::memory_order_relaxed);
    std::size_t written = static_cast<std::size_t>(n);
    while (written > 0 && !ep.outq.empty()) {
      const std::size_t front_left = ep.outq.front().size() - ep.out_off;
      if (written >= front_left) {
        written -= front_left;
        put_slab(std::move(ep.outq.front()));
        ep.outq.pop_front();
        ep.out_off = 0;
      } else {
        ep.out_off += written;
        written = 0;
      }
    }
    if (static_cast<std::size_t>(n) < queued) return;  // partial: wire full
  }
}

void SocketTransport::wake_io() {
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

std::size_t SocketTransport::attach_connection(int fd, const Frame& hello) {
  const std::size_t m = hello.machine;
  if (m >= endpoints_.size() ||
      hello.seq != endpoints_[m]->token.load(std::memory_order_acquire) ||
      !endpoints_[m]->dead.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
    return kInvalidMachine;
  }
  Endpoint& ep = *endpoints_[m];
  set_nonblocking_nodelay(fd);
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    ep.fd = fd;
    ep.decoder = FrameDecoder{};
    while (!ep.outq.empty()) {
      put_slab(std::move(ep.outq.front()));
      ep.outq.pop_front();
    }
    ep.out_off = 0;
    ep.bye_seen = false;
    append_wire(ep, FrameType::kHelloAck, static_cast<std::uint32_t>(m),
                /*seq=*/0, /*payload_bytes=*/0);
  }
  supervisor_->beat(static_cast<std::uint32_t>(m));
  ep.dead.store(false, std::memory_order_release);
  return m;
}

bool SocketTransport::await_handshakes(std::size_t expected, long timeout_us) {
  // Synchronous accept/Hello loop: used by the constructor (no IO thread
  // yet) to gather every machine process. Respawn handshakes ride the IO
  // thread's identical accept path instead.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(timeout_us);
  std::size_t attached = 0;
  std::vector<PendingConn> conns;
  while (attached < expected) {
    if (Clock::now() >= deadline) {
      for (PendingConn& c : conns) ::close(c.fd);
      return false;
    }
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const PendingConn& c : conns) fds.push_back({c.fd, POLLIN, 0});
    // Connections accepted below grow `conns` past what was polled; only
    // the first `polled` entries have a pollfd this round.
    const std::size_t polled = conns.size();
    // Sleep toward the handshake deadline, not a fixed tick: connection and
    // Hello arrivals wake the poll, the deadline bounds a silent child.
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int timeout_ms =
        left.count() < 1 ? 1 : static_cast<int>(std::min<long long>(
                                   left.count(), 1'000));
    ::poll(fds.data(), fds.size(), timeout_ms);
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        conns.push_back({fd, FrameDecoder{}, deadline});
      }
    }
    // fds[j + 1] polled conns[i]; erasing a conn shifts later ones down
    // while their pollfds stay put, so the two indices advance separately.
    std::size_t i = 0;
    for (std::size_t j = 0; j < polled; ++j) {
      if (!(fds[j + 1].revents & (POLLIN | POLLHUP | POLLERR))) {
        ++i;
        continue;
      }
      char buf[256];
      const ssize_t n = ::recv(conns[i].fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
          ++i;
          continue;
        }
        rejected_.fetch_add(1, std::memory_order_relaxed);
        ::close(conns[i].fd);
        conns.erase(conns.begin() + static_cast<long>(i));
        continue;
      }
      conns[i].decoder.feed(buf, static_cast<std::size_t>(n));
      const DecodeResult r = conns[i].decoder.next();
      if (r.error != FrameErrorKind::kNone ||
          (r.has_frame && r.frame.type != FrameType::kHello)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        ::close(conns[i].fd);
        conns.erase(conns.begin() + static_cast<long>(i));
        continue;
      }
      if (!r.has_frame) {
        ++i;
        continue;
      }
      if (attach_connection(conns[i].fd, r.frame) != kInvalidMachine) {
        ++attached;
      }
      conns.erase(conns.begin() + static_cast<long>(i));
    }
  }
  for (PendingConn& c : conns) ::close(c.fd);
  return true;
}

void SocketTransport::handle_peer_death(std::uint32_t machine,
                                        const std::string& reason) {
  Endpoint& ep = *endpoints_[machine];
  if (ep.dead.exchange(true, std::memory_order_acq_rel)) {
    return;  // already declared for this incarnation
  }
  // Strip the endpoint's transport state. Its fd is closed by the IO
  // thread (the only thread that may close fds it polls); in-flight
  // deliveries die with the process.
  std::deque<Endpoint::Pending> dropped;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    dropped.swap(ep.pending);
    while (!ep.outq.empty()) {
      put_slab(std::move(ep.outq.front()));
      ep.outq.pop_front();
    }
    ep.out_off = 0;
  }
  if (!dropped.empty()) {
    inflight_.fetch_sub(dropped.size(), std::memory_order_acq_rel);
    for (const Endpoint::Pending& p : dropped) {
      if (p.crossing) {
        crossing_inflight_[p.dst_segment].fetch_sub(
            1, std::memory_order_acq_rel);
      }
    }
    // Dropped deliveries own protocol objects; destroy them under every
    // stack shard like every other protocol-state mutation (their domains
    // are mixed, so take the global lockset once).
    DomainLock lock(shards_, kGlobalDomain);
    dropped.clear();
  }
  wake_io();
  if (!stopping_.load(std::memory_order_acquire) && death_hook_) {
    death_hook_(MachineId{machine}, reason);
  }
}

void SocketTransport::handle_frames(std::uint32_t machine) {
  Endpoint& ep = *endpoints_[machine];
  for (;;) {
    const DecodeResult r = ep.decoder.next();
    if (r.error != FrameErrorKind::kNone) {
      supervisor_->connection_lost(
          machine, std::string("protocol-error: ") + frame_error_name(r.error));
      return;
    }
    if (!r.has_frame) return;
    switch (r.frame.type) {
      case FrameType::kDeliver: {
        bool fifo_ok = false;
        Endpoint::Pending acked{};
        {
          std::lock_guard<std::mutex> lock(io_mu_);
          if (!ep.pending.empty() && ep.pending.front().seq == r.frame.seq) {
            fifo_ok = true;
            acked = std::move(ep.pending.front());
            ep.pending.pop_front();
          }
        }
        if (!fifo_ok) {
          // An ack for a frame we never sent (or out of order): the
          // connection's FIFO invariant is broken, the stream can't be
          // trusted.
          supervisor_->connection_lost(machine, "protocol-error: bad ack seq");
          return;
        }
        acks_.fetch_add(1, std::memory_order_relaxed);
        if (acked.crossing) {
          crossing_inflight_[acked.dst_segment].fetch_sub(
              1, std::memory_order_acq_rel);
        }
        supervisor_->beat(machine);
        {
          std::lock_guard<std::mutex> lock(dispatch_mu_);
          dispatch_queue_.push_back(std::move(acked.sealed));
        }
        dispatch_cv_.notify_one();
        break;
      }
      case FrameType::kHeartbeat:
        heartbeats_.fetch_add(1, std::memory_order_relaxed);
        supervisor_->beat(machine);
        break;
      case FrameType::kBye: {
        std::lock_guard<std::mutex> lock(io_mu_);
        ep.bye_seen = true;
        break;
      }
      default:
        break;  // stray Hello etc.: harmless
    }
  }
}

void SocketTransport::io_loop() {
  std::vector<pollfd> fds;
  std::vector<long> owners;  // >=0: machine; -1: wake; -2: listener; -3-k: conn k
  while (!io_stop_.load(std::memory_order_acquire)) {
    // Sweep: close fds of endpoints declared dead (only this thread closes
    // polled fds), expire stale pending connections.
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      for (auto& ep_ptr : endpoints_) {
        Endpoint& ep = *ep_ptr;
        if (ep.dead.load(std::memory_order_acquire) && ep.fd >= 0) {
          ::close(ep.fd);
          ep.fd = -1;
        }
      }
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < pending_conns_.size();) {
        if (now >= pending_conns_[i].deadline) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          ::close(pending_conns_[i].fd);
          pending_conns_.erase(pending_conns_.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }
    }

    fds.clear();
    owners.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    owners.push_back(-1);
    fds.push_back({listen_fd_, POLLIN, 0});
    owners.push_back(-2);
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      for (std::size_t m = 0; m < endpoints_.size(); ++m) {
        Endpoint& ep = *endpoints_[m];
        if (ep.fd < 0 || ep.dead.load(std::memory_order_acquire)) continue;
        short events = POLLIN;
        if (!ep.outq.empty() && !wire_held_.load(std::memory_order_acquire)) {
          events |= POLLOUT;
        }
        fds.push_back({ep.fd, events, 0});
        owners.push_back(static_cast<long>(m));
      }
      for (std::size_t i = 0; i < pending_conns_.size(); ++i) {
        fds.push_back({pending_conns_[i].fd, POLLIN, 0});
        owners.push_back(-3 - static_cast<long>(i));
      }
    }

    // Sleep until a socket or the wake pipe stirs: transmit and shutdown
    // both write the wake pipe, so no fixed tick is needed. The only timed
    // wakeup this loop owes anyone is expiring a half-open handshake, so the
    // timeout is that deadline — or forever when none is pending.
    int timeout_ms = -1;
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      if (!pending_conns_.empty()) {
        Clock::time_point earliest = pending_conns_[0].deadline;
        for (const PendingConn& c : pending_conns_) {
          earliest = std::min(earliest, c.deadline);
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            earliest - Clock::now());
        timeout_ms = left.count() < 1
                         ? 1
                         : static_cast<int>(
                               std::min<long long>(left.count(), 1'000));
      }
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const long owner = owners[i];

      if (owner == -1) {
        char buf[256];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }

      if (owner == -2) {
        // A connection here is either a respawned machine's Hello or
        // garbage (tests point nc at us); it gets one second to present a
        // valid Hello, then dies counted.
        for (;;) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          set_nonblocking_nodelay(fd);
          std::lock_guard<std::mutex> lock(io_mu_);
          pending_conns_.push_back(
              {fd, FrameDecoder{}, Clock::now() + std::chrono::seconds(1)});
        }
        continue;
      }

      if (owner <= -3) {
        // Identify the pending connection by fd, not by index: an earlier
        // event in this same poll round may have erased a neighbor and
        // shifted the list.
        const int fd = fds[i].fd;
        char buf[256];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        bool drop = false;
        Frame hello;
        bool have_hello = false;
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          drop = true;
        } else if (n > 0) {
          std::lock_guard<std::mutex> lock(io_mu_);
          for (PendingConn& c : pending_conns_) {
            if (c.fd != fd) continue;
            c.decoder.feed(buf, static_cast<std::size_t>(n));
            const DecodeResult r = c.decoder.next();
            if (r.error != FrameErrorKind::kNone ||
                (r.has_frame && r.frame.type != FrameType::kHello)) {
              drop = true;
            } else if (r.has_frame) {
              hello = r.frame;
              have_hello = true;
            }
            break;
          }
        }
        if (drop || have_hello) {
          {
            std::lock_guard<std::mutex> lock(io_mu_);
            for (std::size_t ci = 0; ci < pending_conns_.size(); ++ci) {
              if (pending_conns_[ci].fd == fd) {
                pending_conns_.erase(pending_conns_.begin() +
                                     static_cast<long>(ci));
                break;
              }
            }
          }
          if (drop) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            ::close(fd);
          } else {
            attach_connection(fd, hello);  // rejects (and counts) bad Hellos
          }
        }
        continue;
      }

      // A machine endpoint.
      const std::uint32_t m = static_cast<std::uint32_t>(owner);
      Endpoint& ep = *endpoints_[m];
      if (ep.dead.load(std::memory_order_acquire)) continue;

      if (fds[i].revents & POLLOUT) {
        std::lock_guard<std::mutex> lock(io_mu_);
        flush_endpoint(ep);
      }

      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        bool eof = false;
        char buf[65536];
        for (;;) {
          const ssize_t n = ::recv(ep.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            ep.decoder.feed(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          eof = true;  // 0 = peer closed; other errors: connection is gone
          break;
        }
        handle_frames(m);  // may declare the peer dead on a protocol error
        if (eof && !ep.dead.load(std::memory_order_acquire)) {
          // A planned EOF (shutdown drain) also runs the death funnel —
          // the supervisor's expect-exit marks make it a silent no-op.
          supervisor_->connection_lost(m, "connection-lost");
        }
      }
    }
  }
}

void SocketTransport::dispatch_loop() {
  std::vector<Sealed> batch;
  for (;;) {
    {
      // Plain predicate wait — no timed tick. Shutdown notifies under
      // dispatch_mu_ after flipping stopping_, so the wakeup cannot be lost.
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [this] {
        return !dispatch_queue_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (dispatch_queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      dispatcher_busy_.store(true, std::memory_order_release);
      batch.swap(dispatch_queue_);
    }
    // In ack order; narrow domains let deliveries toward disjoint machine
    // sets overlap with issues elsewhere.
    execute(batch);
    dispatcher_busy_.store(false, std::memory_order_release);
  }
}

bool SocketTransport::respawn(MachineId machine) {
  PASO_REQUIRE(machine.value < endpoints_.size(), "unknown machine");
  const std::uint32_t m = static_cast<std::uint32_t>(machine.value);
  Endpoint& ep = *endpoints_[m];
  PASO_REQUIRE(ep.dead.load(std::memory_order_acquire),
               "respawn of a live endpoint");
  ep.token.store(fresh_token(), std::memory_order_release);
  if (!spawn_endpoint(m)) return false;

  // The IO thread's accept path completes the handshake; wait it out.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(kHandshakeTimeoutUs);
  while (ep.dead.load(std::memory_order_acquire)) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void SocketTransport::shutdown() {
  if (!begin_shutdown()) return;

  // Every machine process is now expected to exit: tell them to drain, and
  // let the supervisor treat the resulting EOFs/exits as planned.
  supervisor_->expect_all_exits();
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    for (std::size_t m = 0; m < endpoints_.size(); ++m) {
      Endpoint& ep = *endpoints_[m];
      if (ep.fd < 0 || ep.dead.load(std::memory_order_acquire)) continue;
      append_wire(ep, FrameType::kShutdown, static_cast<std::uint32_t>(m),
                  /*seq=*/0, /*payload_bytes=*/0);
    }
  }
  wake_io();

  // Bounded drain: wait for each child's kBye (or its EOF) so exits are
  // clean in the common case; stragglers are reaped by supervisor_->stop().
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::seconds(2);
  for (;;) {
    bool all_done = true;
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      for (const auto& ep : endpoints_) {
        if (!ep->dead.load(std::memory_order_acquire) && !ep->bye_seen) {
          all_done = false;
          break;
        }
      }
    }
    if (all_done || Clock::now() >= drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  io_stop_.store(true, std::memory_order_release);
  wake_io();
  {
    // Touch dispatch_mu_ before notifying: the dispatcher uses an untimed
    // predicate wait, so a notify racing between its predicate check and
    // its sleep would otherwise be lost forever.
    std::lock_guard<std::mutex> lock(dispatch_mu_);
  }
  dispatch_cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  supervisor_->stop();  // reaps every child (SIGKILL escalation for wedges)

  // Pending deliveries are dropped without running — the protocol objects
  // they point into may be about to die. Destroy them under every stack
  // shard for symmetry with the execution path, in the send path's order
  // (shards, then io_mu_) so the lock-order graph stays acyclic even
  // though every other thread is already joined here.
  {
    DomainLock stack_lock(shards_, kGlobalDomain);
    std::lock_guard<std::mutex> io_lock(io_mu_);
    for (auto& ep : endpoints_) {
      ep->pending.clear();
      ep->outq.clear();
      ep->out_off = 0;
      if (ep->fd >= 0) {
        ::close(ep->fd);
        ep->fd = -1;
      }
    }
    std::lock_guard<std::mutex> dispatch_lock(dispatch_mu_);
    dispatch_queue_.clear();
  }
  for (PendingConn& c : pending_conns_) ::close(c.fd);
  pending_conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

}  // namespace paso::net
