// Overload survival: bounded bridge buffers (net layer) and client-edge
// admission control (runtime layer).
//
// The bridge tests are the regression suite for the unbounded-ingress bug:
// a one-directional flood across a bridge used to queue without limit at
// the destination bus; with Topology::with_bridge_limit the queue depth is
// capped and the overflow is shed (counted). The admission tests pin
// RuntimeConfig::admission_limit: over the limit a robust op fails fast
// with the typed Overloaded outcome, and 0 means no gate.
#include <gtest/gtest.h>

#include <vector>

#include "net/bus_network.hpp"
#include "paso/cluster.hpp"
#include "sim/simulator.hpp"

namespace paso {
namespace {

// ---------------------------------------------------------------------------
// bounded bridge buffers (BusNetwork)

constexpr std::size_t kMachines = 6;

// The flood topology is deliberately asymmetric: a fast source bus feeding
// a slow destination bus through the bridge. Crossings arrive every
// kSrc.message(64) time units but drain at one per kDst.message(64) — that
// throughput mismatch is what piles reservations up at the destination
// ingress (a symmetric topology drains as fast as it is fed and never
// builds a backlog).
constexpr CostModel kSrc{1.0, 0.01};  // 64 B costs 1.64
constexpr CostModel kDst{10.0, 1.0};  // 64 B costs 74
constexpr Cost kBridgeAlpha = 5;
constexpr Cost kBridgeBeta = 0.1;  // 64 B bridge hop costs 11.4

net::Topology two_segments(
    std::size_t bridge_capacity = net::kUnboundedBridge) {
  net::Topology t({net::Segment{kSrc}, net::Segment{kDst}},
                  {0, 0, 0, 1, 1, 1}, kBridgeAlpha, kBridgeBeta);
  if (bridge_capacity != net::kUnboundedBridge) {
    t.with_bridge_limit(bridge_capacity);
  }
  return t;
}

struct FloodResult {
  std::size_t delivered = 0;
  std::size_t queue_peak = 0;
  std::uint64_t shed = 0;
  double msg_cost = 0;
  sim::SimTime src_free = 0;
  sim::SimTime done_at = 0;
};

/// One-directional flood: every machine on segment 0 sends `rounds`
/// back-to-back messages to machine 5 on segment 1, all issued at t=0 —
/// the cheap source buses outrun the single destination bus, so the bridge
/// ingress is where the backlog piles up.
FloodResult flood(const net::Topology& topology, int rounds = 20) {
  sim::Simulator sim;
  net::BusNetwork net(sim, CostModel{}, kMachines, topology);
  FloodResult r;
  const MachineId to{5};
  for (int round = 0; round < rounds; ++round) {
    for (std::uint32_t m = 0; m < 3; ++m) {
      net.send(MachineId{m}, to, "flood", 64, [&r, &sim] {
        ++r.delivered;
        r.done_at = sim.now();
      });
    }
  }
  sim.run();
  r.queue_peak = net.bridge_queue_peak(1);
  r.shed = net.bridge_shed();
  r.msg_cost = net.ledger().total_msg_cost();
  r.src_free = net.segment_free_at(0);
  return r;
}

TEST(BoundedBridgeTest, UnboundedFloodGrowsTheIngressWithoutLimit) {
  // The pre-fix behavior (still the default): the destination ingress
  // backlog scales with the flood size — the memory/latency bug.
  const FloodResult small = flood(two_segments(), 10);
  const FloodResult big = flood(two_segments(), 40);
  EXPECT_EQ(small.shed, 0u);
  EXPECT_EQ(big.shed, 0u);
  EXPECT_GT(big.queue_peak, small.queue_peak);
  EXPECT_GT(big.queue_peak, 40u);  // backlog ~ flood size, not a constant
}

TEST(BoundedBridgeTest, CapShedsOverflowAndBoundsTheQueue) {
  const FloodResult r = flood(two_segments(4), 20);
  EXPECT_LE(r.queue_peak, 4u);
  EXPECT_GT(r.shed, 0u);
  // Shed messages still transmitted on the source bus and crossed the
  // bridge, but never reached the destination.
  EXPECT_EQ(r.delivered + r.shed, 60u);
}

TEST(BoundedBridgeTest, ShedCrossingsChargeSourceAndBridgeOnly) {
  // Every crossing costs src + bridge; only delivered ones add dst. With
  // uniform 64-byte messages the ledger total must decompose exactly.
  const FloodResult r = flood(two_segments(4), 20);
  const double src = kSrc.message(64);
  const double bridge = kBridgeAlpha + kBridgeBeta * 64;
  const double dst = kDst.message(64);
  const double expected =
      60.0 * (src + bridge) + static_cast<double>(r.delivered) * dst;
  EXPECT_NEAR(r.msg_cost, expected, 1e-6);  // summation order differs
}

TEST(BoundedBridgeTest, LooseCapIsBitForBitTheLegacyBehavior) {
  // A cap that never binds must not perturb a single timestamp or charge.
  const FloodResult open = flood(two_segments(), 20);
  const FloodResult loose = flood(two_segments(1 << 20), 20);
  EXPECT_EQ(loose.shed, 0u);
  EXPECT_DOUBLE_EQ(loose.msg_cost, open.msg_cost);
  EXPECT_DOUBLE_EQ(loose.done_at, open.done_at);
  EXPECT_DOUBLE_EQ(loose.src_free, open.src_free);
  EXPECT_EQ(loose.queue_peak, open.queue_peak);
}

TEST(BoundedBridgeTest, CapSurvivesDegenerateResolve) {
  // resolve() of a degenerate topology must carry the capacity through
  // (single-bus networks have no crossings, but the config must not be
  // silently dropped when a cluster resolves its topology).
  net::Topology t;
  t.with_bridge_limit(8);
  const net::Topology resolved = t.resolve(4, CostModel{});
  EXPECT_EQ(resolved.bridge_capacity(), 8u);
  EXPECT_TRUE(resolved.bounded_bridges());
}

// ---------------------------------------------------------------------------
// admission control (PasoRuntime)

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

Tuple task(std::int64_t key) { return {Value{key}, Value{std::string{"v"}}}; }

SearchCriterion by_key(std::int64_t key) {
  return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
}

ClusterConfig admission_config(std::size_t limit) {
  ClusterConfig cfg;
  cfg.machines = kMachines;
  cfg.lambda = 1;
  cfg.runtime.admission_limit = limit;
  return cfg;
}

/// Issue `count` robust reads back-to-back (no settling between them) from
/// machine 5, which is outside the write group, so every read is a remote
/// gcast that stays in flight until settled.
std::vector<OpStatus> burst_reads(Cluster& cluster, int count) {
  std::vector<OpStatus> statuses;
  PasoRuntime& rt = cluster.runtime(MachineId{5});
  const ProcessId reader = cluster.process(MachineId{5});
  for (int i = 0; i < count; ++i) {
    rt.read_robust(reader, by_key(0),
                   [&statuses](OpReport r) { statuses.push_back(r.status); });
  }
  cluster.settle();
  return statuses;
}

TEST(AdmissionTest, RejectFailsFastWithTypedOverloadedOutcome) {
  Cluster cluster(task_schema(), admission_config(2));
  cluster.assign_basic_support();
  ASSERT_TRUE(cluster.insert_sync(cluster.process(MachineId{0}), task(0)));

  const std::vector<OpStatus> statuses = burst_reads(cluster, 6);
  ASSERT_EQ(statuses.size(), 6u);
  int ok = 0;
  int overloaded = 0;
  for (const OpStatus s : statuses) {
    if (s == OpStatus::kOk) ++ok;
    if (s == OpStatus::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(overloaded, 4);
  PasoRuntime& rt = cluster.runtime(MachineId{5});
  EXPECT_EQ(rt.admission_rejections(), 4u);
  EXPECT_EQ(rt.inflight(), 0u);
  EXPECT_EQ(rt.admitted_robust(), 0u);
}

TEST(AdmissionTest, CrashClearsTheGateAndTheParkingLot) {
  Cluster cluster(task_schema(), admission_config(1));
  cluster.assign_basic_support();
  ASSERT_TRUE(cluster.insert_sync(cluster.process(MachineId{0}), task(0)));

  PasoRuntime& rt = cluster.runtime(MachineId{5});
  const ProcessId reader = cluster.process(MachineId{5});
  int reports = 0;
  int overloaded = 0;
  for (int i = 0; i < 4; ++i) {
    rt.read_robust(reader, by_key(0), [&](OpReport r) {
      ++reports;
      if (r.status == OpStatus::kOverloaded) ++overloaded;
    });
  }
  // One read holds the gate; the other three were refused inline.
  EXPECT_EQ(overloaded, 3);
  EXPECT_EQ(reports, 3);
  EXPECT_EQ(rt.admitted_robust(), 1u);
  EXPECT_EQ(rt.inflight(), 1u);
  cluster.crash(MachineId{5});
  EXPECT_EQ(rt.admitted_robust(), 0u);
  EXPECT_EQ(rt.inflight(), 0u);
  cluster.settle();
  // The crash orphaned the admitted op: no callback may fire afterwards.
  EXPECT_EQ(reports, 3);
}

TEST(AdmissionTest, OffModeKeepsLegacyBehaviorAndZeroCounters) {
  Cluster cluster(task_schema(), admission_config(0));
  cluster.assign_basic_support();
  ASSERT_TRUE(cluster.insert_sync(cluster.process(MachineId{0}), task(0)));

  const std::vector<OpStatus> statuses = burst_reads(cluster, 8);
  for (const OpStatus s : statuses) EXPECT_EQ(s, OpStatus::kOk);
  PasoRuntime& rt = cluster.runtime(MachineId{5});
  EXPECT_EQ(rt.admission_rejections(), 0u);
}

TEST(AdmissionTest, OverloadedStatusHasAName) {
  EXPECT_STREQ(op_status_name(OpStatus::kOverloaded), "overloaded");
}

}  // namespace
}  // namespace paso
