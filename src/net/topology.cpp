#include "net/topology.hpp"

#include <utility>

namespace paso::net {

Topology::Topology(std::vector<Segment> segments,
                   std::vector<std::uint32_t> machine_segment,
                   Cost bridge_alpha, Cost bridge_beta)
    : segments_(std::move(segments)),
      machine_segment_(std::move(machine_segment)),
      bridge_alpha_(bridge_alpha),
      bridge_beta_(bridge_beta) {
  PASO_REQUIRE(!segments_.empty(), "topology needs at least one segment");
  PASO_REQUIRE(bridge_alpha_ >= 0 && bridge_beta_ >= 0,
               "negative bridge cost");
  for (const std::uint32_t s : machine_segment_) {
    PASO_REQUIRE(s < segments_.size(), "machine assigned to unknown segment");
  }
}

Topology Topology::even(std::size_t segment_count, std::size_t machines,
                        CostModel model, Cost bridge_alpha, Cost bridge_beta) {
  PASO_REQUIRE(segment_count >= 1, "topology needs at least one segment");
  PASO_REQUIRE(machines >= segment_count,
               "fewer machines than segments");
  std::vector<Segment> segments(segment_count, Segment{model});
  std::vector<std::uint32_t> assignment(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    // Contiguous blocks: machine m lands on floor(m * segments / machines),
    // so ids stay clustered by segment (matches how basic support spreads).
    assignment[m] = static_cast<std::uint32_t>(m * segment_count / machines);
  }
  return Topology(std::move(segments), std::move(assignment), bridge_alpha,
                  bridge_beta);
}

const CostModel& Topology::segment_model(std::uint32_t segment) const {
  PASO_REQUIRE(!degenerate(), "degenerate topology has no explicit model");
  PASO_REQUIRE(segment < segments_.size(), "unknown segment");
  return segments_[segment].model;
}

Price Topology::price(MachineId from, MachineId to, std::size_t bytes) const {
  PASO_REQUIRE(!degenerate(),
               "pricing needs a resolved topology (see resolve())");
  Price p;
  p.from_segment = segment_of(from);
  p.to_segment = segment_of(to);
  const CostModel& src = segments_[p.from_segment].model;
  p.source = src.message(bytes);
  p.source_alpha = src.alpha;
  if (p.from_segment != p.to_segment) {
    const CostModel& dst = segments_[p.to_segment].model;
    p.hops = static_cast<std::uint32_t>(hops(from, to));
    p.bridge = static_cast<Cost>(p.hops) *
               (bridge_alpha_ + bridge_beta_ * static_cast<Cost>(bytes));
    p.bridge_alpha = static_cast<Cost>(p.hops) * bridge_alpha_;
    p.destination = dst.message(bytes);
    p.destination_alpha = dst.alpha;
  }
  return p;
}

Topology Topology::resolve(std::size_t machines,
                           const CostModel& default_model) const {
  if (degenerate()) {
    Topology resolved({Segment{default_model}},
                      std::vector<std::uint32_t>(machines, 0), 0, 0);
    resolved.bridge_capacity_ = bridge_capacity_;
    return resolved;
  }
  PASO_REQUIRE(machine_segment_.size() == machines,
               "topology machine map does not match the machine count");
  return *this;
}

}  // namespace paso::net
