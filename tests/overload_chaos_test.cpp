// Overload chaos sweep: open-loop traffic past the knee, bounded bridge
// buffers, admission control, AND the fault injector all at once — 100
// seeded schedules of crashes, drop/delay windows and bridge partitions on
// a two-segment cluster whose bridges shed their overflow and whose client
// edge rejects over its limit. After every run: the Section 2 axioms hold,
// no operation is wedged (every offered op resolved, was abandoned with a
// surfaced error, or was orphaned by its issuer's crash), the runtimes
// report zero inflight, and the same seed replays to the identical
// timeline, ledger and outcome breakdown.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "paso/chaos.hpp"
#include "semantics/checker.hpp"
#include "workload/traffic.hpp"

namespace paso {
namespace {

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 2},
  });
}

constexpr std::size_t kMachines = 6;

struct RunResult {
  std::string timeline;
  double msg_cost = 0;
  double work = 0;
  std::uint64_t crashes = 0;
  std::uint64_t partitions = 0;
  std::uint64_t bridge_shed = 0;
  std::size_t inflight = 0;
  workload::TrafficReport traffic;
  std::vector<std::string> violations;
};

RunResult run_overload_chaos(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.machines = kMachines;
  cfg.lambda = 2;
  cfg.topology = net::Topology::even(2, kMachines, CostModel{}, 60, 0.5);
  cfg.topology.with_bridge_limit(4);
  cfg.runtime.admission_limit = 4;
  cfg.vsync.retransmit_timeout = 300;  // partitions drop messages
  cfg.runtime.op_deadline = 4000;
  cfg.runtime.retry_backoff = 500;
  cfg.runtime.pessimistic_timeouts = true;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_placement_aware_support();

  ChaosSchedule::GenOptions gen;
  gen.horizon = 8000;
  gen.detection_delay = cluster.groups().options().failure_detection_delay;
  gen.bridge_partition_count = 3;
  gen.bridges = cluster.network().bridge_count();
  ChaosEngine engine(cluster, ChaosSchedule::generate(seed, kMachines, gen));
  engine.start();

  workload::TrafficConfig traffic;
  traffic.seed = seed * 613 + 5;
  traffic.arrivals.base_rate = 0.03;  // well past what admission_limit=4 likes
  traffic.arrivals.flash_crowds.push_back(
      {/*start=*/2000, /*duration=*/2000, /*multiplier=*/4});
  traffic.duration = 8000;
  traffic.sessions = 100'000;
  traffic.key_space = 16;  // hot keys: contention on top of overload
  traffic.make_tuple = [](std::uint64_t key, std::size_t payload_bytes) {
    return Tuple{Value{static_cast<std::int64_t>(key)},
                 Value{std::string(payload_bytes, 'x')}};
  };
  traffic.make_criterion = [](std::uint64_t key) {
    return criterion(Exact{Value{static_cast<std::int64_t>(key)}},
                     AnyField{});
  };
  workload::TrafficEngine traffic_engine(cluster, traffic);

  RunResult out;
  out.traffic = traffic_engine.run();  // generates, then settles everything
  cluster.settle();

  out.timeline = engine.timeline();
  out.msg_cost = cluster.ledger().total_msg_cost();
  out.work = cluster.ledger().total_work();
  out.crashes = engine.crashes();
  out.partitions = engine.partitions();
  out.bridge_shed = cluster.network().bridge_shed();
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out.inflight += cluster.runtime(MachineId{m}).inflight();
  }
  out.violations =
      semantics::check_history(cluster.history(), cluster.run_context())
          .violations;
  return out;
}

class OverloadChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverloadChaosSweep, SurvivesOverloadUnderChaos) {
  const std::uint64_t seed = GetParam();
  const RunResult r = run_overload_chaos(seed);

  // Axioms hold and nothing is wedged: every runtime drained its in-flight
  // set, and the history checker saw every op resolve.
  EXPECT_TRUE(r.violations.empty())
      << "seed " << seed << ": " << r.violations.front() << "\n" << r.timeline;
  EXPECT_EQ(r.inflight, 0u) << "seed " << seed << "\n" << r.timeline;

  // Exact reconciliation of the outcome ledger: every offered op landed in
  // exactly one bucket, and orphans exist only when machines crashed.
  EXPECT_EQ(r.traffic.offered,
            r.traffic.ok + r.traffic.failed + r.traffic.timed_out +
                r.traffic.degraded + r.traffic.overloaded + r.traffic.orphaned)
      << "seed " << seed;
  if (r.crashes == 0) {
    EXPECT_EQ(r.traffic.orphaned, 0u) << "seed " << seed;
    EXPECT_EQ(r.traffic.skipped, 0u) << "seed " << seed;
  }
  EXPECT_GT(r.traffic.offered, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 101));

class OverloadChaosReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverloadChaosReplay, SameSeedReplaysIdentically) {
  const RunResult a = run_overload_chaos(GetParam());
  const RunResult b = run_overload_chaos(GetParam());
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_DOUBLE_EQ(a.msg_cost, b.msg_cost);
  EXPECT_DOUBLE_EQ(a.work, b.work);
  EXPECT_EQ(a.bridge_shed, b.bridge_shed);
  const auto outcome = [](const RunResult& r) {
    return std::tuple{r.traffic.offered,    r.traffic.ok,
                      r.traffic.failed,     r.traffic.timed_out,
                      r.traffic.degraded,   r.traffic.overloaded,
                      r.traffic.orphaned,   r.traffic.skipped};
  };
  EXPECT_EQ(outcome(a), outcome(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosReplay,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace paso
