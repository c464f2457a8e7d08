// Socket Transport: machines are real OS processes on a real TCP wire.
//
// The third net::Transport implementation, and the phase-2 half of the
// real-clock runtime: where ThreadedTransport gave each machine a worker
// thread inside one address space, SocketTransport gives each machine its
// own *process* (proc::spawn_machine_process), connected to this — the
// broker — process over a length-prefixed framed codec (net/frame.hpp) on
// TCP localhost. A transmission leaves the broker as a kMsg frame, enters
// the destination machine's process, sits in that process's *bounded*
// ingress buffer, and comes back as a kDeliver ack; only then does the
// delivery closure run, in the broker: delivery closures never leave it.
// The kMsg payload is zero filler of the declared wire size, so protocol
// bytes never cross the wire. The wire carries the traffic's volume and
// timing, not its content.
//
// Bus semantics and cost accounting:
//   * The broker is the bus arbiter: frames toward a machine are numbered
//     and queued under one IO mutex, so each endpoint's stream has a single
//     order — the "token" is the broker itself.
//   * Model costs are charged at transmission begin by RealClockTransport
//     through net::charge, the routine the simulated bus and the threaded
//     transport use, so a socket run's CostLedger reconciles exactly
//     against a simulated replay of the same trace (tools/trace_diff
//     --transport=all asserts this three ways).
//   * Bounded bridges (Topology::with_bridge_limit): the destination
//     process's ingress is this transport's bridge buffer. The broker
//     mirrors its occupancy as a per-destination-segment in-flight credit
//     (frames sent, ack not yet back); a crossing that finds the credit
//     exhausted is shed at transmission begin — charged source + bridge
//     hops only, like the threaded overflow lane and the simulated bus.
//     Within the unbounded default, real backpressure still exists: a full
//     child ingress stops reading and TCP flow control stalls the broker's
//     writes, never the protocol.
//
// Failure plane: each machine process beacons heartbeats; a proc::Supervisor
// turns heartbeat silence, process exit (waitpid), or wire EOF into a
// single peer-death verdict, and the installed peer-death hook maps it onto
// the existing crash/view-change path (Cluster does this wiring). kill -9
// of a machine process is detected within the heartbeat timeout — usually
// faster, via EOF — and surfaces as a protocol crash, not a wedge.
//
// Threads in the broker: one IO thread (poll over all endpoint sockets +
// the listener + a wake pipe; it sleeps until woken or the earliest
// pending-handshake deadline — no fixed poll tick), one dispatcher thread
// executing delivered closures, and the ThreadedExecutor's timer thread.
// All protocol execution — issues, deliveries, timer callbacks — runs
// under RealClockTransport's machine-sharded stack lock, identical to the
// threaded transport's contract; 1 cost unit = 1 microsecond.
// Output IO is batched: frames queued toward an endpoint accumulate in
// pooled slabs and leave in a single writev (frames_sent/write_syscalls
// counters expose the coalescing ratio).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/real_clock_transport.hpp"
#include "proc/supervisor.hpp"

namespace paso::net {

/// Machine processes are forked (proc/spawn.hpp) with an ingress buffer of
/// proc::kIngressCapacity frames, and must complete the Hello/HelloAck
/// handshake within 10 s of construction (and of each respawn).
struct SocketTransportOptions {
  /// Child heartbeat beacon interval, microseconds.
  long heartbeat_interval_us = 25'000;
  /// Supervisor verdict: silence longer than this is peer death.
  long heartbeat_timeout_us = 250'000;
};

class SocketTransport final : public RealClockTransport {
 public:
  SocketTransport(CostModel model, std::size_t n, Topology topology = {},
                  SocketTransportOptions options = {});
  ~SocketTransport() override;

  void shutdown() override;

  // --- process plane ----------------------------------------------------------
  /// Fired (off every internal lock) when a machine process dies — by
  /// kill -9, crash, heartbeat silence, or a malformed stream. The cluster
  /// maps this onto the protocol crash path. Install before traffic.
  using PeerDeathHook =
      std::function<void(MachineId machine, const std::string& reason)>;
  void set_peer_death_hook(PeerDeathHook hook);

  proc::Supervisor& supervisor() { return *supervisor_; }
  /// The machine process's pid (kill targets for the fault harness).
  int child_pid(MachineId m) const;
  /// True while the machine's endpoint process is connected and beating.
  bool endpoint_alive(MachineId m) const;
  /// Spawn a replacement process for a dead endpoint and re-handshake.
  /// Returns false if the handshake deadline passes. The machine's
  /// protocol-level recovery (Cluster::recover) is the caller's next step.
  bool respawn(MachineId m);

  // --- fabric observers -------------------------------------------------------
  /// Frames round-tripped through a machine process and acked back.
  std::uint64_t acks_received() const {
    return acks_.load(std::memory_order_relaxed);
  }
  /// Frames queued toward machine processes (kMsg and control frames).
  std::uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  /// writev() calls the IO thread made flushing endpoint output. The batch
  /// ratio frames_sent() / write_syscalls() is the syscall-coalescing win:
  /// every frame queued while the wire was busy rides a later vectored
  /// write for free.
  std::uint64_t write_syscalls() const {
    return write_syscalls_.load(std::memory_order_relaxed);
  }
  std::uint64_t heartbeats_seen() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }
  /// Connections refused at the listener (bad handshake, bad token,
  /// malformed stream before Hello).
  std::uint64_t rejected_connections() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  std::uint16_t port() const { return port_; }

  /// While held, the IO thread leaves queued frames in place; releasing
  /// the hold flushes everything queued meanwhile. Lets a test queue a
  /// whole burst before the writer can run, whatever the scheduler does.
  void hold_wire(bool held) {
    wire_held_.store(held, std::memory_order_release);
    if (!held) wake_io();
  }

 private:
  /// Broker-side state of one machine's endpoint connection.
  struct Endpoint {
    int fd = -1;
    std::atomic<bool> dead{false};
    FrameDecoder decoder;        ///< IO thread only
    /// Outgoing wire bytes as a queue of pooled slabs; out_off is the
    /// already-sent prefix of the front slab. The IO thread flushes the
    /// whole queue with one writev per poll wakeup. io_mu_.
    std::deque<std::string> outq;
    std::size_t out_off = 0;     ///< io_mu_
    /// FIFO of frames on the wire / in the child's ingress: seq, whether
    /// the transmission was a bridge crossing, and the sealed delivery to
    /// run on ack. io_mu_.
    struct Pending {
      std::uint64_t seq;
      bool crossing;
      std::uint32_t dst_segment;
      Sealed sealed;
    };
    std::deque<Pending> pending;
    std::uint64_t next_seq = 1;  ///< io_mu_
    /// Expected Hello token; respawn rotates it so a stale incarnation's
    /// half-dead socket cannot impersonate the replacement.
    std::atomic<std::uint64_t> token{0};
    bool bye_seen = false;       ///< io_mu_
  };

  /// A just-accepted connection whose Hello hasn't arrived yet.
  struct PendingConn {
    int fd = -1;
    FrameDecoder decoder;
    std::chrono::steady_clock::time_point deadline;
  };

  /// Spawn machine `machine`'s endpoint process, told the endpoint's
  /// current Hello token, and hand it to the supervisor. False on failure.
  bool spawn_endpoint(std::uint32_t machine);
  void io_loop();
  void dispatch_loop();
  void wake_io();
  void handle_frames(std::uint32_t machine);
  /// Funnel for every death signal; idempotent per incarnation.
  void handle_peer_death(std::uint32_t machine, const std::string& reason);
  /// Accept + Hello/HelloAck for one expected machine set; used by the
  /// constructor (all machines) and respawn (one machine). Caller must not
  /// hold io_mu_. Returns false on deadline.
  bool await_handshakes(std::size_t expected, long timeout_us);
  /// Validate a Hello on `fd`; attach as machine endpoint or reject.
  /// Returns the attached machine or SIZE_MAX.
  std::size_t attach_connection(int fd, const Frame& hello);
  /// Append a frame header plus `payload_bytes` of zero filler to the
  /// endpoint's slab queue. Caller holds io_mu_.
  void append_wire(Endpoint& ep, FrameType type, std::uint32_t machine,
                   std::uint64_t seq, std::size_t payload_bytes);
  /// Recycle a drained slab (io_mu_ held).
  void put_slab(std::string&& slab);
  /// Flush the endpoint's slab queue with vectored writes until the wire
  /// blocks or the queue drains. Caller holds io_mu_.
  void flush_endpoint(Endpoint& ep);
  /// Reserve a crossing's bridge credit (none left: shed), then frame the
  /// transmission toward `to` and queue its delivery on the ack FIFO with
  /// the stack-shard `domain` its execution must hold.
  bool transmit(MachineId to, const Price& price, std::size_t bytes,
                Delivery&& deliver, DomainMask domain) override;
  /// True when the dispatcher is not mid-batch.
  bool fabric_idle() const override {
    return !dispatcher_busy_.load(std::memory_order_acquire);
  }

  SocketTransportOptions options_;
  std::unique_ptr<proc::Supervisor> supervisor_;
  PeerDeathHook death_hook_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// io_mu_ guards every endpoint's outq/out_off/pending/bye/next_seq, the
  /// pending-conn list, the slab pool, and fd lifecycle transitions.
  mutable std::mutex io_mu_;
  std::vector<PendingConn> pending_conns_;
  /// Recycled output slabs (io_mu_): steady state allocates nothing per
  /// message — headers and filler are appended into pooled buffers.
  std::vector<std::string> slab_pool_;

  /// Dispatcher: closures acked back from machine processes, executed
  /// under their domain's stack shards in ack order.
  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::vector<Sealed> dispatch_queue_;
  std::atomic<bool> dispatcher_busy_{false};

  /// Bounded-bridge credit: crossings in flight toward each segment.
  std::vector<std::atomic<std::size_t>> crossing_inflight_;

  std::thread io_thread_;
  std::thread dispatch_thread_;
  std::atomic<bool> io_stop_{false};
  std::atomic<bool> wire_held_{false};

  std::atomic<std::uint64_t> acks_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> write_syscalls_{0};
};

}  // namespace paso::net
