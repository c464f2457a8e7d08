// Transport: the network seam the protocol stack sends through.
//
// The PASO stack (GroupService, runtimes, memory servers) is written against
// this interface. Three implementations exist:
//
//   * net::BusNetwork (bus_network.hpp): the paper's serializing bus on the
//     virtual-time simulator — deterministic, the substrate for tests,
//     chaos schedules and the differential oracle.
//   * net::ThreadedTransport (threaded_transport.hpp): a real-clock
//     concurrent transport — one worker thread per machine, bounded
//     lock-free SPSC delivery rings per (segment, machine), a per-segment
//     transmit token preserving the bus's one-message-at-a-time semantics.
//   * net::SocketTransport (socket_transport.hpp): a real-clock transport
//     with one OS process per machine, every message round-tripping a TCP
//     wire through its destination's process.
//
// The two real-clock transports share one core, net::RealClockTransport
// (real_clock_transport.hpp). All three price a transmission with
// Topology::price and charge it with net::charge (below): alpha + beta*|m|
// per bus plus the bridge hops, by the declared wire size. Model-cost
// accounting is therefore identical across transports by construction;
// only the clock driving delivery differs. tools/trace_diff replays one op
// trace on all three and checks exactly that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/cost.hpp"
#include "common/ids.hpp"
#include "exec/executor.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"

namespace paso::net {

/// Per-tag traffic statistics (tags are protocol-level message kinds such as
/// "store", "mem-read", "ack", "state-xfer").
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  Cost cost = 0;
};

/// Running totals for an experiment. Layers above the network also charge
/// server-side processing effort here so that the paper's `work` measure
/// (sum of time spent across servers) is available alongside msg-cost, and
/// the persistence layer reports its durable writes here so disk space is
/// an accounted resource, not just latency.
///
/// Internally synchronized by a leaf mutex: with the real-clock transports'
/// sharded stack locks (net/shard.hpp), charges arrive concurrently from
/// executions holding disjoint shard sets. The totals stay exactly
/// order-independent — every charged value is an integer or a small dyadic
/// fraction well inside double's exact range, so summation order cannot
/// perturb a bit. `per_tag()` returns a reference and must only be read
/// from a quiescent or globally-excluded context.
class CostLedger {
 public:
  void charge_message(const std::string& tag, std::size_t bytes, Cost cost) {
    std::lock_guard<std::mutex> lock(mu_);
    total_msg_cost_ += cost;
    auto& stats = per_tag_[tag];
    ++stats.messages;
    stats.bytes += bytes;
    stats.cost += cost;
  }

  /// Pre-size the per-machine work table so `work_of` is defined for every
  /// machine from the start of the run, not just machines that happened to
  /// be charged already. Crash/recover cycles must not change the table
  /// shape: a machine's work survives its crashes (the ledger meters the
  /// whole experiment, not a single incarnation).
  void ensure_machines(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (work_per_machine_.size() < n) work_per_machine_.resize(n, 0);
    if (disk_bytes_per_machine_.size() < n) {
      disk_bytes_per_machine_.resize(n, 0);
    }
  }

  void charge_work(MachineId machine, Cost amount) {
    std::lock_guard<std::mutex> lock(mu_);
    total_work_ += amount;
    if (machine.value >= work_per_machine_.size()) {
      work_per_machine_.resize(machine.value + 1, 0);
    }
    work_per_machine_[machine.value] += amount;
  }

  /// Durable bytes written by a machine's persistence layer (WAL appends +
  /// checkpoint images). Like work, the totals survive crashes: disk writes
  /// happened whether or not the machine lived to use them.
  void charge_disk(MachineId machine, std::uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    total_disk_bytes_ += bytes;
    if (machine.value >= disk_bytes_per_machine_.size()) {
      disk_bytes_per_machine_.resize(machine.value + 1, 0);
    }
    disk_bytes_per_machine_[machine.value] += bytes;
  }

  Cost total_msg_cost() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_msg_cost_;
  }
  Cost total_work() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_work_;
  }
  Cost work_of(MachineId machine) const {
    std::lock_guard<std::mutex> lock(mu_);
    return machine.value < work_per_machine_.size()
               ? work_per_machine_[machine.value]
               : 0;
  }
  std::uint64_t total_disk_bytes_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_disk_bytes_;
  }
  std::uint64_t disk_bytes_written_of(MachineId machine) const {
    std::lock_guard<std::mutex> lock(mu_);
    return machine.value < disk_bytes_per_machine_.size()
               ? disk_bytes_per_machine_[machine.value]
               : 0;
  }
  const std::map<std::string, TrafficStats>& per_tag() const {
    return per_tag_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    total_msg_cost_ = 0;
    total_work_ = 0;
    total_disk_bytes_ = 0;
    // Keep the table shape: zero the counters without forgetting machines,
    // so `work_of` stays in-range across resets and recover epochs.
    std::fill(work_per_machine_.begin(), work_per_machine_.end(), 0);
    std::fill(disk_bytes_per_machine_.begin(), disk_bytes_per_machine_.end(),
              0);
    per_tag_.clear();
  }

  /// Snapshot of the running totals, used to meter a single operation:
  /// diffing two snapshots yields the paper's (msg-cost, time, work) triple,
  /// where `time` is the largest single-server work delta.
  struct Snapshot {
    Cost msg_cost = 0;
    std::vector<Cost> work;
  };

  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {total_msg_cost_, work_per_machine_};
  }

  CostTriple since(const Snapshot& s) const {
    std::lock_guard<std::mutex> lock(mu_);
    CostTriple t;
    t.msg_cost = total_msg_cost_ - s.msg_cost;
    for (std::size_t i = 0; i < work_per_machine_.size(); ++i) {
      const Cost before = i < s.work.size() ? s.work[i] : 0;
      const Cost delta = work_per_machine_[i] - before;
      t.work += delta;
      if (delta > t.time) t.time = delta;
    }
    return t;
  }

 private:
  mutable std::mutex mu_;
  Cost total_msg_cost_ = 0;
  Cost total_work_ = 0;
  std::uint64_t total_disk_bytes_ = 0;
  std::vector<Cost> work_per_machine_;
  std::vector<std::uint64_t> disk_bytes_per_machine_;
  std::map<std::string, TrafficStats> per_tag_;
};

/// Charge one priced transmission: the ledger (total() under `tag`), the
/// `net.*` metrics and the tracer's per-message alpha/beta record. Every
/// transport calls this and nothing else to account a send, so the model
/// cost of a transmission is the same on all of them by construction.
/// Builds no string and reads no clock unless observability is installed.
void charge(CostLedger& ledger, const obs::Obs& obs, const Topology& topology,
            const exec::Executor& clock, const std::string& tag,
            std::size_t bytes, const Price& price);

/// The protocol stack's view of the network: point-to-point sends with
/// model-cost accounting, machine up/down state, and the executor that
/// drives this transport's timers and deliveries.
class Transport {
 public:
  using Delivery = std::function<void()>;

  virtual ~Transport() = default;

  /// Point-to-point send. `deliver` runs at the destination when
  /// transmission completes, unless the destination is down at that moment
  /// (crash => silent drop, matching the crash-fault model). Self-sends are
  /// free and immediate: the cost model charges only for bus transmissions.
  /// Every send declares its wire size explicitly; all cost accounting uses
  /// the declared size, never sizeof.
  virtual void send(MachineId from, MachineId to, const std::string& tag,
                    std::size_t bytes, Delivery deliver) = 0;

  /// Machine lifecycle, driven by the fault plane.
  virtual void set_up(MachineId machine, bool up) = 0;
  virtual bool is_up(MachineId machine) const = 0;

  virtual std::size_t machine_count() const = 0;
  virtual const CostModel& cost_model() const = 0;
  /// The resolved segment topology (a degenerate config resolves to one
  /// segment over cost_model()).
  virtual const Topology& topology() const = 0;

  virtual CostLedger& ledger() = 0;
  virtual const CostLedger& ledger() const = 0;

  /// The Clock/Executor this transport runs on. The protocol stack takes
  /// all its timers, deadlines, backoffs and TTL sweeps from here, so the
  /// identical stack runs on virtual or wall-clock time.
  virtual exec::Executor& executor() = 0;
  virtual const exec::Executor& executor() const = 0;

  /// Install (or clear) the observability handle that net::charge records
  /// every transmission's alpha/beta decomposition into.
  virtual void set_obs(obs::Obs o) = 0;
  virtual obs::Obs observability() const = 0;

  /// Run `fn` mutually excluded against all protocol execution on this
  /// transport. On the simulated bus this is a plain call (everything is
  /// one thread); the real-clock transports take every stack shard. External
  /// drivers (benches, the REPL, sync wrappers) must issue operations and
  /// read protocol state through this.
  virtual void run_exclusive(const std::function<void()>& fn) { fn(); }

  /// Run `fn` excluded only against protocol executions whose domain
  /// overlaps `domain` — a bitmask of machine shards (net/shard.hpp). The
  /// sharded real-clock transports let disjoint-domain executions proceed
  /// concurrently; the simulated bus (single-threaded by construction)
  /// treats every domain as exclusive. Callers must pass a superset of the
  /// machines the execution can touch; when in doubt use run_exclusive.
  virtual void run_scoped(std::uint64_t domain,
                          const std::function<void()>& fn) {
    (void)domain;
    run_exclusive(fn);
  }

  /// True when the calling context excludes ALL protocol execution on this
  /// transport — i.e. global-domain work (view installs, crash handling)
  /// may run inline here. Always true on the simulated bus. Protocol code
  /// that must touch machines outside its domain checks this and defers via
  /// defer_exclusive instead of running inline.
  virtual bool context_is_global() const { return true; }

  /// Schedule `fn` to run as soon as possible in a GLOBAL-domain execution
  /// (all shards held). On the simulated bus this is exactly
  /// executor().schedule_after(0, fn) — same event, same ordering — so sim
  /// timelines are unchanged by code that routes through it.
  virtual void defer_exclusive(std::function<void()> fn) {
    executor().schedule_after(0, std::move(fn));
  }

  /// Run `fn` with the ambient domain forced to global, WITHOUT taking any
  /// locks: sends issued inside produce global-domain deliveries. For rare
  /// escape hatches (marker notifications) whose delivery chains can reach
  /// machines outside the sender's domain. Plain call on the simulated bus.
  virtual void with_global_context(const std::function<void()>& fn) { fn(); }

  /// Stop delivering: join worker/timer threads on the threaded transport
  /// (idempotent; pending deliveries are dropped). No-op on the simulated
  /// bus. Owners that outlive their protocol stack call this first so no
  /// thread touches dying objects.
  virtual void shutdown() {}

  std::size_t segment_count() const { return topology().segment_count(); }
  exec::Time now() const { return executor().now(); }
};

}  // namespace paso::net
