#include "net/real_clock_transport.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace paso::net {

RealClockTransport::RealClockTransport(CostModel model, std::size_t n,
                                       const Topology& topology)
    : model_(model),
      topology_(topology.resolve(n, model)),
      shards_(n),
      up_(n) {
  ledger_.ensure_machines(n);
  for (auto& up : up_) up.store(true, std::memory_order_relaxed);
}

void RealClockTransport::start_executor() {
  // Timer callbacks are protocol code: run them under the stack shards of
  // the domain captured when they were scheduled, like every delivery and
  // client issue. The capture hook reads the scheduling thread's ambient
  // domain, so timer chains inherit their root execution's domain.
  executor_ = std::make_unique<exec::ThreadedExecutor>(
      [this](exec::Executor::Action&& action, std::uint64_t ctx) {
        DomainLock lock(shards_, ctx);
        DomainScope scope(this, ctx);
        if (!stopping_.load(std::memory_order_relaxed)) action();
      },
      [this] { return context_mask(); });
}

bool RealClockTransport::begin_shutdown() {
  if (shut_down_) return false;
  shut_down_ = true;
  // Stop the timer loop first (joins its thread: no more timer actions).
  // Pending deliveries are dropped without running — the protocol objects
  // they point into may be about to die.
  stopping_.store(true, std::memory_order_release);
  if (executor_) executor_->stop();
  return true;
}

void RealClockTransport::set_up(MachineId machine, bool up) {
  PASO_REQUIRE(machine.value < up_.size(), "unknown machine");
  up_[machine.value].store(up, std::memory_order_release);
}

bool RealClockTransport::is_up(MachineId machine) const {
  PASO_REQUIRE(machine.value < up_.size(), "unknown machine");
  return up_[machine.value].load(std::memory_order_acquire);
}

void RealClockTransport::run_exclusive(const std::function<void()>& fn) {
  run_scoped(kGlobalDomain, fn);
}

void RealClockTransport::run_scoped(std::uint64_t domain,
                                    const std::function<void()>& fn) {
  DomainLock lock(shards_, domain);
  DomainScope scope(this, domain);
  fn();
}

bool RealClockTransport::context_is_global() const {
  return context_mask() == kGlobalDomain;
}

void RealClockTransport::defer_exclusive(std::function<void()> fn) {
  // Re-run `fn` outside the current (narrow) domain: hand it to the timer
  // thread with a forced-global context, so the runner takes every shard.
  // The scheduling context must be global for the capture hook to record
  // kGlobalDomain — force it via TLS for the duration of the schedule call.
  DomainScope scope(this, kGlobalDomain);
  executor_->schedule_after(0, std::move(fn));
}

void RealClockTransport::with_global_context(
    const std::function<void()>& fn) {
  // No locks taken: the caller already holds its domain's shards. This only
  // widens the *advertised* context so nested sends capture the global
  // domain (used for cross-domain notification hops whose downstream
  // chains cannot be bounded by the current domain).
  DomainScope scope(this, kGlobalDomain);
  fn();
}

void RealClockTransport::send(MachineId from, MachineId to,
                              const std::string& tag, std::size_t bytes,
                              Delivery deliver) {
  PASO_REQUIRE(from.value < up_.size() && to.value < up_.size(),
               "unknown machine");
  PASO_REQUIRE(deliver != nullptr, "null delivery");
  if (stopping_.load(std::memory_order_relaxed)) return;
  if (!is_up(from)) return;  // a crashed machine sends nothing

  // The delivery's domain: everything the sending execution may touch,
  // widened by the destination. The delivery can then observe (and extend)
  // exactly the state its cause could — domains only ever widen along a
  // causal chain.
  const DomainMask domain = context_mask() | domain_bit(to.value);

  if (from == to) {
    // Local hand-off: no bus transmission, no cost; runs on the timer
    // thread (under the stack shards of `domain`) as soon as possible —
    // the real-clock analogue of the simulator's schedule_after(0).
    DomainScope scope(this, domain);
    executor_->schedule_after(0, std::move(deliver));
    return;
  }

  Price price = topology_.price(from, to, bytes);
  if (price.crossing()) crossings_.fetch_add(1, std::memory_order_relaxed);
  if (!transmit(to, price, bytes, std::move(deliver), domain)) {
    // Shed at the full bridge ingress: the source bus and the bridge hops
    // carried it, the destination never will.
    price.shed = true;
    bridge_shed_.fetch_add(1, std::memory_order_relaxed);
  }
  // The ledger serializes internally; the obs handles are only ever touched
  // under the global domain (context_mask() forces global whenever
  // observability is installed).
  charge(ledger_, obs_, topology_, *executor_, tag, bytes, price);
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void RealClockTransport::execute(std::vector<Sealed>& batch) {
  for (Sealed& d : batch) {
    DomainLock lock(shards_, d.domain);
    DomainScope scope(this, d.domain);
    if (!stopping_.load(std::memory_order_relaxed) &&
        up_[d.machine].load(std::memory_order_acquire)) {
      d.deliver();
    }
    d.deliver = nullptr;
  }
  inflight_.fetch_sub(batch.size(), std::memory_order_acq_rel);
  batch.clear();
}

bool RealClockTransport::quiesce(const std::function<bool()>& done,
                                 exec::Time timeout_us) {
  const exec::Time deadline = executor_->now() + timeout_us;
  int stable = 0;
  while (stable < 3) {
    // Quiet = nothing moving anywhere: no delivery in the fabric, no fabric
    // thread mid-batch, no executor action running, and an *empty* timer
    // queue. The last test is deliberately `== kNever`, not `> now()`:
    // protocol chains hop through future-due timers (processing costs,
    // install costs), and a poll landing between hops would otherwise call
    // the fabric idle mid-chain. Nothing in the stack schedules perpetual
    // timers while idle, so an empty queue is reachable; pathological
    // pollers (an unsatisfiable blocking read) hit the timeout instead.
    bool quiet = inflight_.load(std::memory_order_acquire) == 0 &&
                 fabric_idle() &&
                 !executor_->running_action() &&
                 executor_->next_due() == exec::kNever;
    if (quiet && done) {
      run_exclusive([&] { quiet = done(); });
    }
    stable = quiet ? stable + 1 : 0;
    if (executor_->now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

}  // namespace paso::net
