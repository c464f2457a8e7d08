// Seeded chaos sweep on a segmented topology: crashes, drop/delay windows
// AND bridge partitions against a two-segment cluster with placement-aware
// support. After every run the Section 2 axioms must hold, no operation may
// still be in flight, and the same seed must replay to an identical
// timeline, ledger and partition count — the bridge-partition events ride
// the same determinism contract as every other chaos kind.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "paso/chaos.hpp"
#include "semantics/checker.hpp"

namespace paso {
namespace {

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 2},
  });
}

Tuple task(std::int64_t key) { return {Value{key}, Value{std::string{"v"}}}; }

constexpr std::size_t kMachines = 6;
constexpr std::uint32_t kDriver = 5;  // immune workload driver

struct RunResult {
  std::string timeline;
  double msg_cost = 0;
  double work = 0;
  std::uint64_t crashes = 0;
  std::uint64_t partitions = 0;
  std::uint64_t partition_dropped = 0;
  std::size_t inflight = 0;
  std::vector<std::string> violations;
};

RunResult run_chaos(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.machines = kMachines;
  cfg.lambda = 2;
  cfg.topology = net::Topology::even(2, kMachines, CostModel{}, 60, 0.5);
  cfg.vsync.retransmit_timeout = 300;  // partitions drop messages
  cfg.runtime.op_deadline = 4000;
  cfg.runtime.retry_backoff = 500;
  cfg.runtime.pessimistic_timeouts = true;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_placement_aware_support();

  ChaosSchedule::GenOptions gen;
  gen.horizon = 10000;
  gen.detection_delay = cluster.groups().options().failure_detection_delay;
  gen.immune = {kDriver};
  gen.bridge_partition_count = 3;
  gen.bridges = cluster.network().bridge_count();
  ChaosEngine engine(cluster, ChaosSchedule::generate(seed, kMachines, gen));
  engine.start();

  Rng rng(seed * 613 + 5);
  const ProcessId driver = cluster.process(MachineId{kDriver});
  PasoRuntime& home = cluster.runtime(MachineId{kDriver});
  auto report = [](OpReport) {};

  for (int round = 0; round < 40; ++round) {
    const std::int64_t key = static_cast<std::int64_t>(rng.index(10));
    const double dice = rng.uniform01();
    if (dice < 0.5) {
      home.insert_robust(driver, task(key), report);
    } else if (dice < 0.8) {
      home.read_robust(driver, criterion(Exact{Value{key}}, AnyField{}),
                       report);
    } else {
      home.read_del_robust(driver, criterion(Exact{Value{key}}, AnyField{}),
                           report);
    }
    cluster.settle_for(150 + static_cast<sim::SimTime>(rng.index(120)));
  }
  cluster.settle_for(10000);
  cluster.settle();

  RunResult out;
  out.timeline = engine.timeline();
  out.msg_cost = cluster.ledger().total_msg_cost();
  out.work = cluster.ledger().total_work();
  out.crashes = engine.crashes();
  out.partitions = engine.partitions();
  out.partition_dropped = cluster.network().partition_dropped();
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out.inflight += cluster.runtime(MachineId{m}).inflight();
  }
  out.violations =
      semantics::check_history(cluster.history(), cluster.run_context())
          .violations;
  return out;
}

class TopologyChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyChaosSweep, AxiomsHoldUnderBridgePartitions) {
  const RunResult r = run_chaos(GetParam());
  EXPECT_TRUE(r.violations.empty())
      << "seed " << GetParam() << ": " << r.violations.front() << "\n"
      << r.timeline;
  EXPECT_EQ(r.inflight, 0u) << "seed " << GetParam() << "\n" << r.timeline;
}

TEST_P(TopologyChaosSweep, SameSeedReplaysIdentically) {
  const RunResult a = run_chaos(GetParam());
  const RunResult b = run_chaos(GetParam());
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_DOUBLE_EQ(a.msg_cost, b.msg_cost);
  EXPECT_DOUBLE_EQ(a.work, b.work);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.partition_dropped, b.partition_dropped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(TopologyChaosScheduleTest, BridgeDrawsExtendOldSchedulesInPlace) {
  // Adding bridge partitions must not perturb the pre-existing draws: the
  // old schedule is a prefix of the new one, event for event.
  ChaosSchedule::GenOptions base;
  ChaosSchedule::GenOptions with_bridges = base;
  with_bridges.bridge_partition_count = 2;
  with_bridges.bridges = 1;
  const ChaosSchedule old_sched = ChaosSchedule::generate(42, 6, base);
  const ChaosSchedule new_sched = ChaosSchedule::generate(42, 6, with_bridges);
  ASSERT_EQ(new_sched.events.size(), old_sched.events.size() + 2);
  std::size_t bridge_events = 0;
  for (const ChaosEvent& ev : new_sched.events) {
    if (ev.kind == ChaosEvent::Kind::kBridgePartition) ++bridge_events;
  }
  EXPECT_EQ(bridge_events, 2u);
  // Every non-bridge event matches the old schedule in order.
  std::size_t j = 0;
  for (const ChaosEvent& ev : new_sched.events) {
    if (ev.kind == ChaosEvent::Kind::kBridgePartition) continue;
    ASSERT_LT(j, old_sched.events.size());
    EXPECT_EQ(ev.kind, old_sched.events[j].kind);
    EXPECT_EQ(ev.machine, old_sched.events[j].machine);
    EXPECT_DOUBLE_EQ(ev.at, old_sched.events[j].at);
    ++j;
  }
  EXPECT_EQ(j, old_sched.events.size());
}

}  // namespace
}  // namespace paso
