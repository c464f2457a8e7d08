#include "net/threaded_transport.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace paso::net {

namespace {

/// Tiny scoped spinlock over an atomic_flag — the per-segment transmit
/// token. Held only for the ring push (no waiting on other locks inside),
/// so spinning is bounded by the other holder's push.
class TokenGuard {
 public:
  explicit TokenGuard(std::atomic_flag& flag) : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      // Busy-wait; pushes are tens of nanoseconds.
    }
  }
  ~TokenGuard() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag& flag_;
};

}  // namespace

ThreadedTransport::ThreadedTransport(CostModel model, std::size_t n,
                                     Topology topology,
                                     ThreadedTransportOptions options)
    : RealClockTransport(model, n, topology), options_(options) {
  const std::size_t segments = topology_.segment_count();
  for (std::size_t s = 0; s < segments; ++s) {
    tokens_.push_back(std::make_unique<std::atomic_flag>());
    for (std::size_t m = 0; m < n; ++m) {
      rings_.push_back(
          std::make_unique<SpscRing<Sealed>>(options_.ring_capacity));
    }
  }
  start_executor();
  for (std::uint32_t m = 0; m < n; ++m) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->overflow.resize(segments);
  }
  // Start the worker threads only after every shared structure above is in
  // place.
  for (std::uint32_t m = 0; m < n; ++m) {
    workers_[m]->thread = std::thread([this, m] { worker_loop(m); });
  }
}

ThreadedTransport::~ThreadedTransport() { shutdown(); }

void ThreadedTransport::shutdown() {
  if (!begin_shutdown()) return;
  for (auto& worker : workers_) wake(*worker);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

bool ThreadedTransport::transmit(MachineId to, const Price& price,
                                 std::size_t /*bytes*/, Delivery&& deliver,
                                 DomainMask domain) {
  // Only crossings meet the bridge cap: intra-segment sends ride the
  // overflow lane however deep it gets. A crossing at the cap is shed.
  const std::size_t cap = price.crossing() && topology_.bounded_bridges()
                              ? topology_.bridge_capacity()
                              : kUnboundedBridge;
  const std::uint32_t segment = price.to_segment;
  Worker& worker = *workers_[to.value];
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  {
    // The destination segment's transmit token is the single-producer
    // guarantee for ring (segment, to): one message onto a segment's rings
    // at a time, like one message on the bus at a time. (A crossing holds
    // only the destination token — the source bus's serialization has no
    // delivery-side effect when transmission takes zero wall time.)
    TokenGuard token(*tokens_[segment]);
    bool spill;
    {
      std::lock_guard<std::mutex> lock(worker.overflow_mu);
      spill = !worker.overflow[segment].empty();
      if (spill && worker.overflow[segment].size() >= cap) {
        // Bounded bridge ingress already at capacity: shed. Decided here,
        // under the token, so the lane can never exceed the cap (the token
        // serializes every producer for this segment).
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        return false;
      }
    }
    Sealed sealed{std::move(deliver), domain,
                  static_cast<std::uint32_t>(to.value)};
    if (!spill) spill = !ring(segment, to.value).try_push(std::move(sealed));
    if (spill) {
      // Ring full (or draining a previous spill): spill to the overflow
      // lane. FIFO per (segment, machine) survives because the producer
      // keeps spilling until the worker has emptied the lane, and the
      // worker always drains ring-then-overflow.
      overflowed_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(worker.overflow_mu);
      worker.overflow[segment].push_back(std::move(sealed));
    }
  }
  wake(worker);
  return true;
}

void ThreadedTransport::wake(Worker& worker) {
  if (worker.parked.load(std::memory_order_seq_cst)) {
    // Briefly entering the worker's mutex pairs with its predicate
    // re-check under the same mutex, so the notify cannot be missed.
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.cv.notify_one();
  }
}

bool ThreadedTransport::fabric_idle() const {
  for (const auto& worker : workers_) {
    if (worker->busy.load(std::memory_order_acquire)) return false;
  }
  return true;
}

void ThreadedTransport::worker_loop(std::uint32_t machine) {
  Worker& worker = *workers_[machine];
  const std::size_t segments = topology_.segment_count();
  std::vector<Sealed> batch;
  while (true) {
    // Drain phase (lock-free except the overflow lane): ring first, then
    // overflow — overflow entries are always newer than every ring entry
    // present when they spilled.
    for (std::uint32_t s = 0; s < segments; ++s) {
      Sealed d;
      while (ring(s, machine).try_pop(d)) batch.push_back(std::move(d));
      std::lock_guard<std::mutex> lock(worker.overflow_mu);
      auto& lane = worker.overflow[s];
      while (!lane.empty()) {
        batch.push_back(std::move(lane.front()));
        lane.pop_front();
      }
    }

    if (!batch.empty()) {
      // Deliveries bound for disjoint machine sets execute concurrently
      // across workers: each holds only its sealed domain's shards.
      worker.busy.store(true, std::memory_order_release);
      execute(batch);
      worker.busy.store(false, std::memory_order_release);
      continue;
    }

    if (stopping_.load(std::memory_order_acquire)) return;

    // Park. The bounded wait covers the classic store/load race between
    // our parked flag and a producer's push: a missed notify costs at most
    // the wait_for timeout, never a hang.
    worker.parked.store(true, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lock(worker.mu);
    worker.cv.wait_for(lock, std::chrono::microseconds(500));
    worker.parked.store(false, std::memory_order_seq_cst);
  }
}

}  // namespace paso::net
