// Unit tests for the segmented bus topology: cost math, per-segment
// serialization, bridge crossings/partitions, placement-aware write-group
// selection, the segment-aware LRF selector and sticky read rotation.
#include <gtest/gtest.h>

#include <vector>

#include "adaptive/support_selection.hpp"
#include "net/bus_network.hpp"
#include "paso/cluster.hpp"
#include "paso/placement.hpp"
#include "sim/simulator.hpp"

namespace paso {
namespace {

using net::BusNetwork;
using net::Topology;

// ---------------------------------------------------------------------------
// Topology math

TEST(TopologyTest, EvenSplitsContiguously) {
  const Topology t = Topology::even(3, 6, CostModel{}, 50, 0.5);
  EXPECT_FALSE(t.degenerate());
  EXPECT_EQ(t.segment_count(), 3u);
  EXPECT_EQ(t.bridge_count(), 2u);
  const std::vector<std::uint32_t> expected = {0, 0, 1, 1, 2, 2};
  EXPECT_EQ(t.machine_segments(), expected);
  EXPECT_EQ(t.hops(MachineId{0}, MachineId{1}), 0u);
  EXPECT_EQ(t.hops(MachineId{0}, MachineId{3}), 1u);
  EXPECT_EQ(t.hops(MachineId{5}, MachineId{0}), 2u);
}

TEST(TopologyTest, MessageCostAddsEndSegmentsAndBridgeHops) {
  const Topology t = Topology::even(2, 4, CostModel{10, 1}, 50, 0.5);
  // Intra-segment: the segment's own alpha + beta * bytes.
  EXPECT_DOUBLE_EQ(t.message_cost(MachineId{0}, MachineId{1}, 8), 18.0);
  // Self-sends stay free.
  EXPECT_DOUBLE_EQ(t.message_cost(MachineId{2}, MachineId{2}, 8), 0.0);
  // One crossing: source segment + one bridge hop + destination segment.
  EXPECT_DOUBLE_EQ(t.message_cost(MachineId{0}, MachineId{2}, 8),
                   18.0 + (50 + 0.5 * 8) + 18.0);
}

TEST(TopologyTest, DegenerateResolvesToOneSegmentOverTheDefaultModel) {
  const Topology resolved = Topology{}.resolve(4, CostModel{7, 2});
  EXPECT_FALSE(resolved.degenerate());
  EXPECT_EQ(resolved.segment_count(), 1u);
  EXPECT_EQ(resolved.bridge_count(), 0u);
  EXPECT_DOUBLE_EQ(resolved.segment_model(0).alpha, 7.0);
  EXPECT_DOUBLE_EQ(resolved.message_cost(MachineId{0}, MachineId{3}, 4),
                   7.0 + 2.0 * 4);
}

// ---------------------------------------------------------------------------
// Segmented bus behavior

TEST(SegmentedBusTest, OneSegmentTopologyMatchesTheClassicBus) {
  // The explicit one-segment topology must be bit-for-bit the classic
  // single-bus network: same costs, same delivery times.
  sim::Simulator sim_a;
  BusNetwork classic(sim_a, CostModel{10, 1}, 4);
  sim::Simulator sim_b;
  BusNetwork one_seg(sim_b, CostModel{10, 1}, 4,
                     Topology::even(1, 4, CostModel{10, 1}, 0, 0));

  std::vector<sim::SimTime> at_a, at_b;
  for (int i = 0; i < 3; ++i) {
    classic.send(MachineId{0}, MachineId{1}, "t", 32,
                 [&] { at_a.push_back(sim_a.now()); });
    one_seg.send(MachineId{0}, MachineId{1}, "t", 32,
                 [&] { at_b.push_back(sim_b.now()); });
  }
  sim_a.run();
  sim_b.run();
  EXPECT_EQ(at_a, at_b);
  EXPECT_DOUBLE_EQ(classic.ledger().total_msg_cost(),
                   one_seg.ledger().total_msg_cost());
  EXPECT_DOUBLE_EQ(classic.bus_free_at(), one_seg.bus_free_at());
}

TEST(SegmentedBusTest, SegmentsSerializeIndependently) {
  sim::Simulator sim;
  BusNetwork net(sim, CostModel{10, 1}, 4,
                 Topology::even(2, 4, CostModel{10, 1}, 50, 0));
  // Two intra-segment sends on *different* segments, issued together: each
  // occupies only its own bus, so both deliver at t = 10 + 32 = 42. On the
  // classic shared bus the second would wait for the first.
  sim::SimTime first = -1, second = -1;
  net.send(MachineId{0}, MachineId{1}, "a", 32, [&] { first = sim.now(); });
  net.send(MachineId{2}, MachineId{3}, "b", 32, [&] { second = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(first, 42.0);
  EXPECT_DOUBLE_EQ(second, 42.0);
  EXPECT_EQ(net.crossings(), 0u);
  EXPECT_EQ(net.segment_stats(0).messages, 1u);
  EXPECT_EQ(net.segment_stats(1).messages, 1u);
}

TEST(SegmentedBusTest, CrossSegmentChargesBothBusesAndTheBridge) {
  sim::Simulator sim;
  BusNetwork net(sim, CostModel{10, 1}, 4,
                 Topology::even(2, 4, CostModel{10, 1}, 50, 0.5));
  sim::SimTime delivered = -1;
  net.send(MachineId{0}, MachineId{2}, "x", 8, [&] { delivered = sim.now(); });
  sim.run();
  // Source bus [0, 18), bridge 50 + 0.5*8 = 54, destination bus [72, 90).
  EXPECT_DOUBLE_EQ(delivered, 90.0);
  EXPECT_DOUBLE_EQ(net.ledger().total_msg_cost(), 90.0);
  EXPECT_EQ(net.crossings(), 1u);
  EXPECT_DOUBLE_EQ(net.segment_free_at(0), 18.0);
  EXPECT_DOUBLE_EQ(net.segment_free_at(1), 90.0);

  // The destination-bus reservation is real: a segment-1 local send issued
  // now must wait for the crossing's tail to clear that bus.
  sim::SimTime local = -1;
  net.send(MachineId{2}, MachineId{3}, "y", 8, [&] { local = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(local, 90.0 + 18.0);
}

TEST(SegmentedBusTest, BridgePartitionDropsCrossingsButChargesThem) {
  sim::Simulator sim;
  BusNetwork net(sim, CostModel{10, 1}, 4,
                 Topology::even(2, 4, CostModel{10, 1}, 50, 0));
  net.set_bridge_partition(0, 100);

  bool crossed = false;
  bool local = false;
  net.send(MachineId{0}, MachineId{2}, "x", 8, [&] { crossed = true; });
  net.send(MachineId{0}, MachineId{1}, "y", 8, [&] { local = true; });
  sim.run();
  // The crossing started inside the window: dropped at delivery, but the
  // bandwidth it consumed is charged (lost messages are not free).
  EXPECT_FALSE(crossed);
  EXPECT_TRUE(local);
  EXPECT_EQ(net.partition_dropped(), 1u);
  EXPECT_GT(net.ledger().total_msg_cost(), 0.0);

  // After the window the bridge heals.
  sim.schedule_at(200, [] {});
  sim.run();
  net.send(MachineId{0}, MachineId{2}, "x", 8, [&] { crossed = true; });
  sim.run();
  EXPECT_TRUE(crossed);
}

// ---------------------------------------------------------------------------
// Placement

TEST(PlacementTest, CoLocatesWithTheReaderSegment) {
  const Topology t = Topology::even(2, 6, CostModel{}, 50, 0.5).resolve(
      6, CostModel{});
  PlacementRequest req;
  req.machines = 6;
  req.lambda = 1;
  req.read_weight = {0, 0, 0, 0, 0, 1};  // all reads from machine 5 (seg 1)
  const auto group = choose_write_group(t, req);
  ASSERT_EQ(group.size(), 2u);
  // First pick: a segment-1 machine (score 0, lowest id 3). The spread cap
  // then forces the second replica onto segment 0 (lowest id 0).
  EXPECT_EQ(group[0].value, 3u);
  EXPECT_EQ(group[1].value, 0u);
}

TEST(PlacementTest, SpreadCapKeepsAReplicaOffTheHotSegment) {
  const Topology t = Topology::even(2, 6, CostModel{}, 50, 0.5).resolve(
      6, CostModel{});
  PlacementRequest req;
  req.machines = 6;
  req.lambda = 2;  // group of 3, cap 2 per segment
  req.read_weight = {0, 0, 0, 1, 1, 1};
  const auto group = choose_write_group(t, req);
  ASSERT_EQ(group.size(), 3u);
  std::size_t on_hot = 0;
  for (const MachineId m : group) {
    if (t.segment_of(m) == 1) ++on_hot;
  }
  EXPECT_EQ(on_hot, 2u);  // capped at size - 1
}

TEST(PlacementTest, UniformWeightsFallBackToLoadThenId) {
  const Topology t = Topology::even(1, 4, CostModel{}, 0, 0).resolve(
      4, CostModel{});
  PlacementRequest req;
  req.machines = 4;
  req.lambda = 1;
  req.machine_load = {2, 0, 1, 0};
  const auto group = choose_write_group(t, req);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].value, 1u);  // least loaded, lowest id
  EXPECT_EQ(group[1].value, 3u);
}

// ---------------------------------------------------------------------------
// Segment-aware LRF

TEST(SegmentAwareLrfTest, DegenerateTopologyMatchesPlainLrf) {
  const std::size_t machines = 6, lambda = 1;
  adaptive::LrfSelector lrf(machines, lambda);
  adaptive::SegmentAwareLrfSelector seg(
      machines, lambda, std::vector<std::uint32_t>(machines, 0), 0);
  Rng rng(7);
  const auto trace = adaptive::uniform_failure_trace(machines, 200, rng);
  for (const std::size_t f : trace) {
    EXPECT_EQ(lrf.on_failure(f), seg.on_failure(f));
    EXPECT_EQ(lrf.write_group(), seg.write_group());
  }
  EXPECT_EQ(lrf.copies(), seg.copies());
}

TEST(SegmentAwareLrfTest, ReplacementPrefersTheReaderSegment) {
  // Machines 0-2 on segment 0, 3-5 on segment 1; readers on segment 1.
  adaptive::SegmentAwareLrfSelector seg(6, 1, {0, 0, 0, 1, 1, 1}, 1);
  // wg starts {0, 1}. Failing 0 must pull in a segment-1 machine (3 by id
  // tie-break) even though machine 2 is an equally never-failed candidate.
  EXPECT_TRUE(seg.on_failure(0));
  const auto group = seg.write_group();
  EXPECT_EQ(group, (std::vector<std::size_t>{1, 3}));
}

// ---------------------------------------------------------------------------
// Cluster integration: placement-aware support + sticky rotation

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

Tuple task(std::int64_t key) { return {Value{key}, Value{std::string{"v"}}}; }

TEST(PlacementClusterTest, AwareSupportCutsCrossingsAndCostOnHotSegment) {
  // Reads must still consult lambda+1 = |wg| members for fault tolerance,
  // so the cross-bridge replica is queried either way. The aware win is
  // that the co-located replica exists at all: the payload-bearing
  // response is served bus-locally (nearest responder) and only the
  // query+ack legs to the far replica cross — against basic placement,
  // where every message of every read crosses.
  auto hot_spot = [](bool aware) {
    ClusterConfig cfg;
    cfg.machines = 6;
    cfg.lambda = 1;
    cfg.topology = Topology::even(2, 6, CostModel{}, 60, 0.5);
    Cluster cluster(task_schema(), cfg);
    if (aware) {
      std::vector<double> weights(6, 0.0);
      weights[5] = 1.0;
      cluster.assign_placement_aware_support({weights});
    } else {
      cluster.assign_basic_support();
    }
    const auto members = cluster.groups().view_of("wg/task/0").members;
    EXPECT_EQ(members.size(), 2u);
    std::size_t on_reader_segment = 0;
    for (const MachineId m : members) {
      if (cluster.network().topology().segment_of(m) == 1) {
        ++on_reader_segment;
      }
    }
    // Aware: co-located with the reader but one replica kept across the
    // bridge (spread cap). Basic: the whole group sits on segment 0.
    EXPECT_EQ(on_reader_segment, aware ? 1u : 0u);

    const ProcessId writer = cluster.process(MachineId{4});
    EXPECT_TRUE(cluster.insert_sync(writer, task(1)));
    const std::uint64_t crossings_before = cluster.network().crossings();
    const Cost cost_before = cluster.ledger().total_msg_cost();
    const ProcessId reader = cluster.process(MachineId{5});
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          cluster
              .read_sync(reader, criterion(Exact{Value{1ll}},
                                           TypedAny{FieldType::kText}))
              .has_value());
    }
    return std::pair<std::uint64_t, Cost>{
        cluster.network().crossings() - crossings_before,
        cluster.ledger().total_msg_cost() - cost_before};
  };
  const auto [aware_crossings, aware_cost] = hot_spot(true);
  const auto [basic_crossings, basic_cost] = hot_spot(false);
  EXPECT_LT(aware_crossings, basic_crossings);
  EXPECT_LT(aware_cost, basic_cost);
}

TEST(PlacementClusterTest, RebalanceMigratesTowardObservedReaders) {
  ClusterConfig cfg;
  cfg.machines = 6;
  cfg.lambda = 1;
  cfg.topology = Topology::even(2, 6, CostModel{}, 60, 0.5);
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();  // wg = {0, 1}, both on segment 0
  const ClassId cls{0};

  const ProcessId writer = cluster.process(MachineId{0});
  ASSERT_TRUE(cluster.insert_sync(writer, task(1)));
  const ProcessId reader = cluster.process(MachineId{5});
  for (int i = 0; i < 20; ++i) {
    cluster.read_sync(reader, criterion(Exact{Value{1ll}},
                                        TypedAny{FieldType::kText}));
  }
  const auto weights = cluster.observed_read_weights(cls);
  ASSERT_EQ(weights.size(), 6u);
  EXPECT_GT(weights[5], 0.0);

  cluster.rebalance_placement(cls);
  cluster.settle();
  const auto members = cluster.groups().view_of("wg/task/0").members;
  ASSERT_EQ(members.size(), 2u);
  std::size_t on_reader_segment = 0;
  for (const MachineId m : members) {
    if (cluster.network().topology().segment_of(m) == 1) ++on_reader_segment;
  }
  EXPECT_EQ(on_reader_segment, 1u);
  // The migrated group still answers reads.
  EXPECT_TRUE(cluster
                  .read_sync(reader, criterion(Exact{Value{1ll}},
                                               TypedAny{FieldType::kText}))
                  .has_value());
}

TEST(StickyRotationTest, SticksToOneWindowUnderHeavyUniformLoad) {
  // Against a heavy, evenly spread background load the probe can never
  // undercut the anchor by the 5% margin before the measured reader's own
  // contribution runs out, so every sticky read lands on the same
  // lambda+1 window — unlike blind rotation, which touches every member.
  // (With *no* background load the anchor's own reads make any idle probe
  // look better, and sticky correctly degrades to two-choice spreading.)
  ClusterConfig cfg;
  cfg.machines = 8;
  cfg.lambda = 1;
  cfg.runtime.read_route = ReadRoute::kRotating;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  for (std::uint32_t m = 0; m < 6; ++m) {
    cluster.runtime(MachineId{m}).request_join(ClassId{0});
  }
  cluster.settle();
  ASSERT_TRUE(cluster.insert_sync(cluster.process(MachineId{0}), task(1)));
  cluster.ledger().reset();

  // 840 blind-rotation reads from machine 6: 140 per window start, every
  // member covered by two windows — a perfectly uniform load of 280 query
  // services each.
  const ProcessId background = cluster.process(MachineId{6});
  for (int i = 0; i < 840; ++i) {
    cluster.read_sync(background, criterion(Exact{Value{1ll}},
                                            TypedAny{FieldType::kText}));
  }
  std::vector<Cost> base(6);
  for (std::uint32_t m = 0; m < 6; ++m) {
    base[m] = cluster.ledger().work_of(MachineId{m});
  }
  EXPECT_DOUBLE_EQ(base[0], base[5]) << "pre-load must be uniform";

  // 12 sticky reads add at most 12 services to the anchor window — under
  // the ~14.7 (280/19) the 5% margin needs before a probe wins.
  cluster.runtime(MachineId{7}).mutable_config().read_route =
      ReadRoute::kSticky;
  const ProcessId reader = cluster.process(MachineId{7});
  for (int i = 0; i < 12; ++i) {
    cluster.read_sync(reader, criterion(Exact{Value{1ll}},
                                        TypedAny{FieldType::kText}));
  }
  std::size_t touched = 0;
  for (std::uint32_t m = 0; m < 6; ++m) {
    if (cluster.ledger().work_of(MachineId{m}) > base[m]) ++touched;
  }
  // Exactly the anchor window: lambda+1 members.
  EXPECT_EQ(touched, 2u);
}

TEST(StickyRotationTest, CutsMaxLoadUnderSkewVersusBlindRotation) {
  auto max_member_load = [](bool sticky) {
    ClusterConfig cfg;
    cfg.machines = 8;
    cfg.lambda = 1;
    cfg.runtime.read_route = ReadRoute::kRotating;
    Cluster cluster(task_schema(), cfg);
    cluster.assign_basic_support();
    for (std::uint32_t m = 0; m < 6; ++m) {
      cluster.runtime(MachineId{m}).request_join(ClassId{0});
    }
    cluster.settle();
    // Background reader 6 pins the static basic pair; measured reader 7
    // rotates blindly or stickily.
    cluster.runtime(MachineId{6}).mutable_config().read_route =
        ReadRoute::kBasicSupport;
    cluster.runtime(MachineId{7}).mutable_config().read_route =
        sticky ? ReadRoute::kSticky : ReadRoute::kRotating;
    EXPECT_TRUE(cluster.insert_sync(cluster.process(MachineId{0}), task(1)));
    cluster.ledger().reset();

    const SearchCriterion sc =
        criterion(Exact{Value{1ll}}, TypedAny{FieldType::kText});
    for (int i = 0; i < 80; ++i) {
      cluster.read_sync(cluster.process(MachineId{6}), sc);
      cluster.read_sync(cluster.process(MachineId{6}), sc);
      cluster.read_sync(cluster.process(MachineId{7}), sc);
    }
    Cost max_load = 0;
    for (std::uint32_t m = 0; m < 6; ++m) {
      max_load = std::max(max_load, cluster.ledger().work_of(MachineId{m}));
    }
    return max_load;
  };
  EXPECT_LT(max_member_load(true), max_member_load(false));
}

}  // namespace
}  // namespace paso
