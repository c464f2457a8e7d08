// RealClockTransport: everything the two wall-clock transports share.
//
// ThreadedTransport (a worker thread per machine) and SocketTransport (a
// process per machine behind a broker) differ only in their *fabric* — how
// an admitted message travels to the thread that runs its delivery. The
// rest is one runtime, implemented here once:
//
//   * the machine-sharded stack lock (net/shard.hpp) and the domain
//     bookkeeping: context_mask, run_exclusive/run_scoped,
//     context_is_global, defer_exclusive, with_global_context;
//   * the ThreadedExecutor that runs timer callbacks under the domain
//     captured when they were scheduled;
//   * the send path: validate, drop sends from stopped or crashed senders,
//     capture the delivery's domain, hand self-sends to the executor, price
//     the transmission (Topology::price), let the fabric admit or shed it,
//     and charge it (net::charge) — the same charge the simulated bus uses;
//   * machine up/down state, the fabric counters, and quiesce().
//
// A subclass supplies two hooks: `transmit` (admit a priced message into
// the fabric, or shed it at a full bounded bridge ingress) and
// `fabric_idle` (no fabric thread is mid-execution). It starts the executor
// itself via start_executor(), at the point its construction allows — the
// socket broker forks every machine process first, and a process must not
// fork once it has threads. docs/threading.md has the concurrency story.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/threaded_executor.hpp"
#include "net/shard.hpp"
#include "net/transport.hpp"

namespace paso::net {

class RealClockTransport : public Transport {
 public:
  ~RealClockTransport() override = default;

  RealClockTransport(const RealClockTransport&) = delete;
  RealClockTransport& operator=(const RealClockTransport&) = delete;

  // --- Transport -------------------------------------------------------------
  void send(MachineId from, MachineId to, const std::string& tag,
            std::size_t bytes, Delivery deliver) final;
  void set_up(MachineId machine, bool up) final;
  bool is_up(MachineId machine) const final;
  std::size_t machine_count() const final { return up_.size(); }
  const CostModel& cost_model() const final { return model_; }
  const Topology& topology() const final { return topology_; }
  CostLedger& ledger() final { return ledger_; }
  const CostLedger& ledger() const final { return ledger_; }
  exec::Executor& executor() final { return *executor_; }
  const exec::Executor& executor() const final { return *executor_; }
  /// Install before traffic starts (the Cluster does it at construction):
  /// the handle is read on the send path without further synchronization.
  void set_obs(obs::Obs o) final { obs_ = o; }
  obs::Obs observability() const final { return obs_; }
  void run_exclusive(const std::function<void()>& fn) final;
  void run_scoped(std::uint64_t domain,
                  const std::function<void()>& fn) final;
  bool context_is_global() const final;
  void defer_exclusive(std::function<void()> fn) final;
  void with_global_context(const std::function<void()>& fn) final;

  // --- fabric observers (atomic counters, readable without the stack lock) --
  std::uint64_t messages() const {
    return messages_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t crossings() const {
    return crossings_.load(std::memory_order_relaxed);
  }
  /// Crossings shed at a full bounded bridge ingress (see
  /// Topology::with_bridge_limit), exactly as the simulated bus sheds.
  /// Shedding is also the only sound choice on a real clock: the sender
  /// holds stack shards the fabric needs to drain the ingress, so blocking
  /// for room would deadlock.
  std::uint64_t bridge_shed() const {
    return bridge_shed_.load(std::memory_order_relaxed);
  }

  /// Block until the fabric is quiet: no deliveries in flight, the fabric
  /// idle, no timer action running or pending (the timer queue must drain
  /// completely — protocol chains hop through future-due timers, so "due
  /// later" still means "busy"), and `done` (checked under the stack lock;
  /// may be null) true — stable across a few polls. Returns false on
  /// timeout (e.g. an unsatisfiable polling blocking read).
  bool quiesce(const std::function<bool()>& done = {},
               exec::Time timeout_us = 30'000'000);

 protected:
  RealClockTransport(CostModel model, std::size_t n, const Topology& topology);

  /// Admit a priced transmission toward `to` into the fabric, to run
  /// `deliver` under the stack shards of `domain`. Returns false when the
  /// message is shed at a full bounded bridge ingress (only crossings can
  /// be); `deliver` is then destroyed by the caller, under its shards.
  virtual bool transmit(MachineId to, const Price& price, std::size_t bytes,
                        Delivery&& deliver, DomainMask domain) = 0;
  /// True when no fabric thread is executing or holding popped deliveries.
  virtual bool fabric_idle() const = 0;

  /// A delivery bound for `machine`, sealed with the stack-shard domain its
  /// execution must hold: the sender's ambient domain widened by the
  /// destination's shard.
  struct Sealed {
    Delivery deliver;
    DomainMask domain = kGlobalDomain;
    std::uint32_t machine = 0;
  };
  /// The execute phase of every fabric thread: run a drained batch in order,
  /// each delivery under its domain's shards — skipped when stopping or when
  /// its machine is down at execution time, mirroring the simulated bus's
  /// delivery-time crash drop — and destroyed under those shards. The batch
  /// then leaves inflight_; callers drop their busy flag only afterwards,
  /// so quiesce() never sees inflight 0 with a thread still mid-batch.
  void execute(std::vector<Sealed>& batch);

  /// Create the timer executor (and its thread). Subclasses call this once
  /// every structure a timer callback can reach is in place.
  void start_executor();
  /// First step of every subclass shutdown(): false when already shut
  /// down; otherwise stops sends, timer actions and deliveries and joins
  /// the timer thread.
  bool begin_shutdown();

  /// The calling thread's ambient domain on THIS transport (global for
  /// foreign threads). Observability forces global: the tracer's ambient
  /// op context is inherently single-threaded.
  DomainMask context_mask() const {
    if (obs_.enabled()) return kGlobalDomain;
    const DomainContext& c = tls_domain();
    return c.owner == this ? c.mask : kGlobalDomain;
  }

  const CostModel model_;
  const Topology topology_;
  CostLedger ledger_;
  obs::Obs obs_;
  /// THE stack lock, sharded per machine: every protocol step (issue,
  /// delivery, timer) holds the shards of its domain, ascending.
  ShardedStackLock shards_;
  std::unique_ptr<exec::ThreadedExecutor> executor_;
  std::vector<std::atomic<bool>> up_;
  std::atomic<bool> stopping_{false};
  /// Deliveries admitted but not yet executed, wherever the fabric holds
  /// them.
  std::atomic<std::uint64_t> inflight_{0};

 private:
  bool shut_down_ = false;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> crossings_{0};
  std::atomic<std::uint64_t> bridge_shed_{0};
};

}  // namespace paso::net
