// Segmented LAN topology (multi-segment bus).
//
// The paper's network model (Section 3.3) is one serializing Ethernet; a
// Topology generalizes it to a *chain* of bus segments, each with its own
// alpha/beta and its own serialization queue, joined by store-and-forward
// bridges. A message between machines on segments s and t occupies the
// source bus for its source-segment msg-cost, crosses |s - t| bridges at
// bridge_alpha + bridge_beta*|m| each, then occupies the destination bus for
// its destination-segment msg-cost. Bridges never serialize (only the shared
// buses do), so the model stays a deterministic lower bound on completion
// time exactly like the single bus.
//
// Bridge buffers are *bounded* when `bridge_capacity` is set: a crossing
// that would find more than `bridge_capacity` crossings already queued at
// the destination bus's ingress is shed — dropped after its source-bus
// transmission, like a partition drop. All three transports shed the same
// way. The default capacity is unbounded, which is bit-for-bit the legacy
// store-and-forward behavior.
//
// The default-constructed Topology is *degenerate*: no segments declared,
// meaning "one bus, use the network's own cost model". BusNetwork's
// degenerate path is bit-for-bit the classic single-bus behavior, which is
// what lets every pre-topology BENCH_baseline.json row reproduce exactly.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/cost.hpp"
#include "common/ids.hpp"
#include "common/require.hpp"

namespace paso::net {

/// One bus segment: an independent serializing Ethernet.
struct Segment {
  CostModel model{};
};

/// Sentinel: unbounded bridge buffers (the legacy model).
inline constexpr std::size_t kUnboundedBridge = SIZE_MAX;

/// One transmission's msg-cost, split into the legs it occupies: the source
/// bus, the bridge hops, the destination bus (zero on an intra-segment send,
/// where the source bus is the only bus). Every transport charges total()
/// and times or admits the message from the same parts, so the model cost
/// of a send cannot differ between transports.
struct Price {
  std::uint32_t from_segment = 0;
  std::uint32_t to_segment = 0;
  std::uint32_t hops = 0;
  Cost source = 0;
  Cost bridge = 0;
  Cost destination = 0;
  Cost source_alpha = 0;
  Cost bridge_alpha = 0;
  Cost destination_alpha = 0;
  /// Died at a full bridge ingress: the source bus and the bridges carried
  /// it, the destination bus never did, so the destination leg is unpaid.
  bool shed = false;

  bool crossing() const { return hops > 0; }
  Cost total() const { return source + bridge + (shed ? 0 : destination); }
  /// The fixed-overhead share of total(); the rest is the per-byte share.
  Cost alpha() const {
    return source_alpha + (shed ? 0 : destination_alpha) + bridge_alpha;
  }
};

class Topology {
 public:
  /// Degenerate single-bus topology (the classic model).
  Topology() = default;

  /// Explicit topology: `machine_segment[m]` places machine m on a segment.
  /// Segments form a chain in index order; crossing from segment s to t
  /// costs |s - t| bridge hops.
  Topology(std::vector<Segment> segments,
           std::vector<std::uint32_t> machine_segment, Cost bridge_alpha,
           Cost bridge_beta);

  /// Split `machines` machines into `segment_count` contiguous blocks of
  /// (near-)equal size, every segment sharing `model`.
  static Topology even(std::size_t segment_count, std::size_t machines,
                       CostModel model, Cost bridge_alpha, Cost bridge_beta);

  bool degenerate() const { return segments_.empty(); }
  std::size_t segment_count() const {
    return degenerate() ? 1 : segments_.size();
  }
  std::size_t bridge_count() const { return segment_count() - 1; }

  std::uint32_t segment_of(MachineId m) const {
    return m.value < machine_segment_.size() ? machine_segment_[m.value] : 0;
  }
  const CostModel& segment_model(std::uint32_t segment) const;
  Cost bridge_alpha() const { return bridge_alpha_; }
  Cost bridge_beta() const { return bridge_beta_; }

  /// Bound the per-segment bridge ingress buffer: at most `capacity`
  /// crossings may be queued awaiting a destination bus at any moment; a
  /// crossing that finds the buffer full is shed at the bridge: the source
  /// bus already transmitted it (and is charged), the destination bus never
  /// carries it. kUnboundedBridge (the default) reproduces the legacy
  /// unbounded store-and-forward behavior bit for bit. Returns *this so a
  /// topology literal can be built fluently.
  Topology& with_bridge_limit(std::size_t capacity) {
    PASO_REQUIRE(capacity > 0, "bridge capacity must be positive");
    bridge_capacity_ = capacity;
    return *this;
  }
  std::size_t bridge_capacity() const { return bridge_capacity_; }
  bool bounded_bridges() const {
    return bridge_capacity_ != kUnboundedBridge;
  }

  /// Bridge hops between two machines' segments (0 = same segment).
  std::size_t hops(MachineId a, MachineId b) const {
    const std::uint32_t sa = segment_of(a);
    const std::uint32_t sb = segment_of(b);
    return sa < sb ? sb - sa : sa - sb;
  }

  /// Price of a transmission between two distinct machines: the source
  /// segment's alpha + beta*|m|, plus, on a crossing, one bridge cost per
  /// hop and the destination segment's alpha + beta*|m|. Needs a resolved
  /// topology (see resolve()).
  Price price(MachineId from, MachineId to, std::size_t bytes) const;

  /// Model msg-cost of a transmission: price(...).total(), and 0 for a
  /// self-send (a local hand-off never touches a bus).
  Cost message_cost(MachineId from, MachineId to, std::size_t bytes) const {
    return from == to ? 0 : price(from, to, bytes).total();
  }

  /// Concrete copy of this topology for a network of `machines` machines:
  /// the degenerate form becomes an explicit one-segment topology running
  /// `default_model`; explicit forms are validated against the machine
  /// count and returned as-is.
  Topology resolve(std::size_t machines, const CostModel& default_model) const;

  const std::vector<Segment>& segments() const { return segments_; }
  const std::vector<std::uint32_t>& machine_segments() const {
    return machine_segment_;
  }

 private:
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> machine_segment_;
  Cost bridge_alpha_ = 0;
  Cost bridge_beta_ = 0;
  std::size_t bridge_capacity_ = kUnboundedBridge;
};

}  // namespace paso::net
