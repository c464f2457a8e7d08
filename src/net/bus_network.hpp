// Simulated bus-based LAN (Section 3.3), generalized to a segment Topology.
//
// The paper's network model is a standard-Unix-workstation Ethernet: no
// hardware multicast, messages transmitted one at a time on a shared bus,
// per-message cost msg-cost(m) = alpha + beta*|m|. We model exactly that:
// each send occupies its bus for its msg-cost in virtual time units, so the
// total message cost of a run is, by construction, a lower bound on the time
// to complete it — the property Section 5 relies on. With a multi-segment
// Topology each segment is its own serializing bus; a crossing occupies the
// source bus, pays per-hop bridge latency, then occupies the destination
// bus (see topology.hpp). The degenerate topology reproduces the single-bus
// behavior bit-for-bit.
//
// BusNetwork is the virtual-time implementation of net::Transport; the
// real-clock counterparts derive from net::RealClockTransport. Payloads are delivery
// closures (the whole system lives in one address space), but every send
// declares its wire size explicitly; all cost accounting uses the declared
// size, never sizeof.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/cost.hpp"
#include "common/ids.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace paso::net {

/// A serializing broadcast bus (or chain of bridged bus segments)
/// connecting `n` machines.
class BusNetwork final : public Transport {
 public:
  /// Per-segment traffic totals (utilization = busy / elapsed time).
  struct SegmentStats {
    std::uint64_t messages = 0;  ///< transmissions that occupied this bus
    std::uint64_t bytes = 0;
    Cost busy = 0;  ///< total virtual time this bus spent transmitting
  };

  BusNetwork(sim::Simulator& simulator, CostModel model, std::size_t n,
             Topology topology = {})
      : simulator_(simulator),
        model_(model),
        topology_(topology.resolve(n, model)),
        up_(n, true),
        chaos_(n),
        segment_free_(topology_.segment_count(), 0),
        segment_stats_(topology_.segment_count()),
        bridge_partition_until_(topology_.bridge_count(), 0),
        ingress_(topology_.segment_count()),
        ingress_peak_(topology_.segment_count(), 0) {
    ledger_.ensure_machines(n);
  }

  /// Point-to-point send. The message occupies its bus(es) for its
  /// msg-cost; `deliver` runs at the destination when transmission
  /// completes, unless the destination is down at that moment (crash =>
  /// silent drop, matching the crash-fault model). Self-sends are free and
  /// immediate: the paper's cost model charges only for bus transmissions.
  void send(MachineId from, MachineId to, const std::string& tag,
            std::size_t bytes, Delivery deliver) override;

  /// Machine lifecycle, driven by the fault injector.
  void set_up(MachineId machine, bool up) override {
    PASO_REQUIRE(machine.value < up_.size(), "unknown machine");
    up_[machine.value] = up;
  }
  bool is_up(MachineId machine) const override {
    PASO_REQUIRE(machine.value < up_.size(), "unknown machine");
    return up_[machine.value];
  }

  /// Chaos plane (driven by paso::ChaosEngine). Disturbance windows model
  /// receiver-side trouble: while `now < until`, inbound messages to the
  /// machine are dropped at delivery time (but the bus transmission still
  /// happened, so it is still charged — lost messages cost real bandwidth)
  /// or delayed by `extra` beyond their transmission end. Self-sends are
  /// local hand-offs and bypass the chaos plane, like they bypass the bus.
  void set_drop_window(MachineId to, sim::SimTime until) {
    PASO_REQUIRE(to.value < chaos_.size(), "unknown machine");
    chaos_[to.value].drop_until = std::max(chaos_[to.value].drop_until, until);
  }
  void set_delay_window(MachineId to, sim::SimTime until, sim::SimTime extra) {
    PASO_REQUIRE(to.value < chaos_.size(), "unknown machine");
    PASO_REQUIRE(extra >= 0, "negative delay");
    chaos_[to.value].delay_until = until;
    chaos_[to.value].extra_delay = extra;
  }
  /// Partition bridge `bridge` (between segments `bridge` and `bridge+1`)
  /// until `until`: messages whose path crosses it while partitioned are
  /// dropped at delivery but still charged — the source bus transmitted
  /// them before the bridge ate them.
  void set_bridge_partition(std::size_t bridge, sim::SimTime until) {
    PASO_REQUIRE(bridge < bridge_partition_until_.size(), "unknown bridge");
    bridge_partition_until_[bridge] =
        std::max(bridge_partition_until_[bridge], until);
  }
  std::uint64_t chaos_dropped() const { return chaos_dropped_; }
  std::uint64_t chaos_delayed() const { return chaos_delayed_; }
  std::uint64_t partition_dropped() const { return partition_dropped_; }

  // --- bounded bridge buffers (Topology::bridge_capacity) -------------------
  /// Crossings shed at a full destination ingress.
  std::uint64_t bridge_shed() const { return bridge_shed_; }
  /// High-water ingress depth seen on `segment` (the quantity a
  /// bridge_capacity bound caps).
  std::size_t bridge_queue_peak(std::size_t segment) const {
    PASO_REQUIRE(segment < ingress_peak_.size(), "unknown segment");
    return ingress_peak_[segment];
  }

  std::size_t machine_count() const override { return up_.size(); }
  const CostModel& cost_model() const override { return model_; }
  CostLedger& ledger() override { return ledger_; }
  const CostLedger& ledger() const override { return ledger_; }
  sim::Simulator& simulator() { return simulator_; }
  exec::Executor& executor() override { return simulator_; }
  const exec::Executor& executor() const override { return simulator_; }

  /// The resolved topology (always explicit: a degenerate config becomes a
  /// one-segment topology over `cost_model()`).
  const Topology& topology() const override { return topology_; }
  std::size_t bridge_count() const { return topology_.bridge_count(); }
  const SegmentStats& segment_stats(std::size_t segment) const {
    PASO_REQUIRE(segment < segment_stats_.size(), "unknown segment");
    return segment_stats_[segment];
  }
  /// Cross-segment transmissions so far.
  std::uint64_t crossings() const { return crossings_; }

  /// Install (or clear) the observability handle: net::charge records every
  /// transmission's alpha/beta decomposition against the active traces.
  void set_obs(obs::Obs o) override { obs_ = o; }
  obs::Obs observability() const override { return obs_; }

  /// Virtual time at which the network next becomes fully free: the max
  /// over segments (for tests asserting the serialization property; on the
  /// degenerate topology this is the classic single bus_free_at).
  sim::SimTime bus_free_at() const {
    return *std::max_element(segment_free_.begin(), segment_free_.end());
  }
  sim::SimTime segment_free_at(std::size_t segment) const {
    PASO_REQUIRE(segment < segment_free_.size(), "unknown segment");
    return segment_free_[segment];
  }

 private:
  /// Reserve `segment`'s bus for `busy` time from `start`; returns the end.
  sim::SimTime occupy(std::uint32_t segment, sim::SimTime start, Cost busy,
                      std::size_t bytes) {
    segment_free_[segment] = start + busy;
    SegmentStats& stats = segment_stats_[segment];
    ++stats.messages;
    stats.bytes += bytes;
    stats.busy += busy;
    return segment_free_[segment];
  }

  struct Disturbance {
    sim::SimTime drop_until = 0;
    sim::SimTime delay_until = 0;
    sim::SimTime extra_delay = 0;
  };

  sim::Simulator& simulator_;
  CostModel model_;
  Topology topology_;
  obs::Obs obs_;
  std::vector<bool> up_;
  std::vector<Disturbance> chaos_;
  CostLedger ledger_;
  std::vector<sim::SimTime> segment_free_;
  std::vector<SegmentStats> segment_stats_;
  std::vector<sim::SimTime> bridge_partition_until_;
  /// Per-segment bridge ingress: destination-bus start times of reserved
  /// crossings, ascending (each reservation starts no earlier than the
  /// previous one ended). A crossing is "in the bridge buffer" from its
  /// arrival until its destination transmission begins; the deque is pruned
  /// at `now`, so its length tracks the real backlog — which is exactly
  /// what grows without bound when a segment is flooded and
  /// bridge_capacity is infinite.
  std::vector<std::deque<sim::SimTime>> ingress_;
  std::vector<std::size_t> ingress_peak_;
  std::uint64_t chaos_dropped_ = 0;
  std::uint64_t chaos_delayed_ = 0;
  std::uint64_t partition_dropped_ = 0;
  std::uint64_t crossings_ = 0;
  std::uint64_t bridge_shed_ = 0;
};

}  // namespace paso::net
