// Real-clock threaded Transport: the "as fast as the hardware allows" bus.
//
// One worker thread per machine consumes bounded lock-free SPSC delivery
// rings — one ring per (segment, machine) pair — and a per-segment transmit
// token (spinlock) serializes senders on each segment, preserving the bus's
// one-message-at-a-time semantics without simulating transmission delay:
// the clock is std::chrono::steady_clock (via exec::ThreadedExecutor), and
// a message is delivered as soon as its ring hop and the destination worker
// allow.
//
// Everything but the fabric — the cost charge, the machine-sharded stack
// lock and its domain rules, the executor, quiesce — is RealClockTransport's
// (net/real_clock_transport.hpp; docs/threading.md has the memory-order
// story). The fabric contract:
//   * Deliveries run on the destination's worker under the stack shards of
//     the domain sealed at send time.
//   * The transport fabric itself is concurrent: ring push/pop are
//     lock-free, the transmit token is a spinlock held only for the push,
//     and workers drain rings outside the stack shards.
//   * A send never blocks: when a ring is full it spills to a small
//     mutex-guarded overflow queue drained by the same worker (FIFO order
//     per (segment, machine) is preserved because the worker empties the
//     overflow first while it is nonempty).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/real_clock_transport.hpp"
#include "net/spsc_ring.hpp"

namespace paso::net {

struct ThreadedTransportOptions {
  /// Slots per (segment, machine) delivery ring (rounded up to a power of
  /// two; one slot is the full/empty sentinel).
  std::size_t ring_capacity = 1024;
};

class ThreadedTransport final : public RealClockTransport {
 public:
  ThreadedTransport(CostModel model, std::size_t n, Topology topology = {},
                    ThreadedTransportOptions options = {});
  ~ThreadedTransport() override;

  void shutdown() override;

  /// Sends that found their ring full and took the overflow path.
  std::uint64_t overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> parked{false};
    std::atomic<bool> busy{false};
    // Overflow lane for full rings, one deque per source segment to keep
    // the per-(segment, machine) FIFO contract.
    std::mutex overflow_mu;
    std::vector<std::deque<Sealed>> overflow;
  };

  SpscRing<Sealed>& ring(std::uint32_t segment, std::uint32_t machine) {
    return *rings_[segment * machine_count() + machine];
  }
  /// Push onto the (destination segment, to) ring, spilling to the overflow
  /// lane when full. The lane is this transport's bridge ingress buffer: a
  /// crossing that finds it at the bounded-bridge cap is shed (false).
  bool transmit(MachineId to, const Price& price, std::size_t bytes,
                Delivery&& deliver, DomainMask domain) override;
  /// True when no worker is executing or holding popped deliveries.
  bool fabric_idle() const override;
  void worker_loop(std::uint32_t machine);
  void wake(Worker& worker);

  ThreadedTransportOptions options_;
  /// Per-segment transmit token: the single-producer guarantee for each
  /// (segment, machine) ring — whoever holds segment s's token is the one
  /// producer for every ring (s, *).
  std::vector<std::unique_ptr<std::atomic_flag>> tokens_;
  std::vector<std::unique_ptr<SpscRing<Sealed>>> rings_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> overflowed_{0};
};

}  // namespace paso::net
