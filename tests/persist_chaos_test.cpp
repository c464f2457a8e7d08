// Seeded chaos sweep with durable persistence and disk faults in play.
//
// The same acceptance harness as chaos_property_test — 67 seeds x 3 workload
// shapes = 201 generated fault schedules — but every machine now runs the
// WAL + checkpoint subsystem, recoveries replay local state and negotiate
// delta transfers, and the schedules additionally tear, corrupt and
// half-write the durable files underneath the running system. The Section 2
// axioms must hold anyway: damaged logs are detected by checksum, truncated
// to their clean prefix, and whatever the disk cannot prove is re-fetched
// from a live donor (delta or full). Determinism must survive too — the
// whole persistence plane is virtual-time-driven, so a seed replays to an
// identical timeline and ledger.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "paso/chaos.hpp"
#include "persist/manager.hpp"
#include "semantics/checker.hpp"

namespace paso {
namespace {

enum class Workload { kBagOfTasks, kKv, kCoordination };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBagOfTasks:
      return "bag-of-tasks";
    case Workload::kKv:
      return "kv";
    case Workload::kCoordination:
      return "coordination";
  }
  return "?";
}

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 2},
  });
}

Tuple task(std::int64_t key) { return {Value{key}, Value{std::string{"v"}}}; }

constexpr std::size_t kMachines = 6;
constexpr std::uint32_t kDriver = 5;  // immune; issues the scripted workload

struct RunResult {
  std::string timeline;
  std::size_t history_size = 0;
  double msg_cost = 0;
  double work = 0;
  std::uint64_t disk_faults = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t replays = 0;
  std::size_t inflight = 0;
  int reports = 0;
  std::vector<std::string> violations;
};

RunResult run_chaos(std::uint64_t seed, Workload workload) {
  ClusterConfig cfg;
  cfg.machines = kMachines;
  cfg.lambda = 2;
  cfg.vsync.retransmit_timeout = 300;
  cfg.runtime.op_deadline = 4000;
  cfg.runtime.retry_backoff = 500;
  cfg.runtime.pessimistic_timeouts = true;
  cfg.runtime.batch_window = 40;
  cfg.runtime.max_batch = 8;
  cfg.persistence.enabled = true;
  // Checkpoint aggressively so the sweep also exercises compaction and the
  // too-stale -> full-transfer fallback, not just happy-path deltas.
  cfg.persistence.checkpoint_every_bytes = 2 * 1024;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();

  ChaosSchedule::GenOptions gen;
  gen.horizon = 12000;
  gen.detection_delay = cluster.groups().options().failure_detection_delay;
  gen.immune = {kDriver};
  gen.disk_fault_count = 3;
  ChaosEngine engine(cluster, ChaosSchedule::generate(seed, kMachines, gen));
  engine.start();

  RunResult out;
  auto report = [&out](OpReport) { ++out.reports; };

  Rng rng(seed * 977 + static_cast<std::uint64_t>(workload) * 131 + 1);
  const ProcessId driver = cluster.process(MachineId{kDriver});
  PasoRuntime& home = cluster.runtime(MachineId{kDriver});
  std::int64_t next_task = 0;

  for (int round = 0; round < 45; ++round) {
    switch (workload) {
      case Workload::kBagOfTasks: {
        home.insert_robust(driver, task(next_task++ % 8), report);
        const MachineId worker{
            static_cast<std::uint32_t>(rng.index(kMachines - 1))};
        if (cluster.is_up(worker) && !cluster.is_initializing(worker)) {
          cluster.runtime(worker).read_del_robust(
              cluster.process(worker), criterion(AnyField{}, AnyField{}),
              report);
        }
        break;
      }
      case Workload::kKv: {
        const std::int64_t key = static_cast<std::int64_t>(rng.index(12));
        const double dice = rng.uniform01();
        if (dice < 0.55) {
          home.insert_robust(driver, task(key), report);
        } else if (dice < 0.85) {
          home.read_robust(driver, criterion(Exact{Value{key}}, AnyField{}),
                           report);
        } else {
          home.read_del_robust(
              driver, criterion(Exact{Value{key}}, AnyField{}), report);
        }
        break;
      }
      case Workload::kCoordination: {
        const std::int64_t key = 1000 + round;
        const sim::SimTime deadline = cluster.simulator().now() + 3000;
        home.read_blocking(
            driver, criterion(Exact{Value{key}}, AnyField{}),
            [](SearchResponse) {},
            round % 2 == 0 ? BlockingMode::kPoll : BlockingMode::kMarker,
            deadline);
        home.insert_robust(driver, task(key), report);
        break;
      }
    }
    cluster.settle_for(150 + static_cast<sim::SimTime>(rng.index(120)));
  }

  cluster.settle_for(12000);
  cluster.settle();

  out.timeline = engine.timeline();
  out.history_size = cluster.history().size();
  out.msg_cost = cluster.ledger().total_msg_cost();
  out.work = cluster.ledger().total_work();
  out.disk_faults = engine.disk_faults();
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out.inflight += cluster.runtime(MachineId{m}).inflight();
    out.corruptions +=
        cluster.persistence(MachineId{m}).stats().corruptions_detected;
    out.replays += cluster.persistence(MachineId{m}).stats().replays;
  }
  out.violations =
      semantics::check_history(cluster.history(), cluster.run_context())
          .violations;
  return out;
}

// ---------------------------------------------------------------------------
// The sweep: 67 seeds x 3 workloads = 201 schedules.

class PersistChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PersistChaosSweep, AxiomsHoldWithDurableDisksUnderFire) {
  for (const Workload w :
       {Workload::kBagOfTasks, Workload::kKv, Workload::kCoordination}) {
    const RunResult r = run_chaos(GetParam(), w);
    EXPECT_TRUE(r.violations.empty())
        << "seed " << GetParam() << " workload " << workload_name(w) << ": "
        << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_EQ(r.inflight, 0u)
        << "seed " << GetParam() << " workload " << workload_name(w);
    EXPECT_GT(r.reports, 0) << "workload issued no robust ops?";
    EXPECT_FALSE(r.timeline.empty()) << "chaos engine applied no events";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 68));

// ---------------------------------------------------------------------------
// Determinism: disk costs, replay delays and fault injection are all
// virtual-time driven, so a seed must replay to the same run.

TEST(PersistChaosDeterminismTest, SameSeedReplaysIdenticalRun) {
  for (const std::uint64_t seed : {7ull, 19ull, 53ull}) {
    for (const Workload w :
         {Workload::kBagOfTasks, Workload::kKv, Workload::kCoordination}) {
      const RunResult a = run_chaos(seed, w);
      const RunResult b = run_chaos(seed, w);
      EXPECT_EQ(a.timeline, b.timeline)
          << "seed " << seed << " workload " << workload_name(w);
      EXPECT_EQ(a.msg_cost, b.msg_cost);
      EXPECT_EQ(a.work, b.work);
      EXPECT_EQ(a.history_size, b.history_size);
      EXPECT_EQ(a.disk_faults, b.disk_faults);
      EXPECT_EQ(a.corruptions, b.corruptions);
      EXPECT_EQ(a.replays, b.replays);
    }
  }
}

// ---------------------------------------------------------------------------
// The fault plane must actually engage: across a handful of seeds the
// schedules inject real disk damage, crashed machines replay their disks on
// recovery, and at least some of the damage is caught by the checksums.

TEST(PersistChaosCoverageTest, DiskFaultsApplyAndRecoveriesReplay) {
  std::uint64_t faults = 0, replays = 0, corruptions = 0;
  for (const std::uint64_t seed : {2ull, 11ull, 29ull, 43ull, 61ull}) {
    const RunResult r = run_chaos(seed, Workload::kKv);
    faults += r.disk_faults;
    replays += r.replays;
    corruptions += r.corruptions;
  }
  EXPECT_GT(faults, 0u) << "no schedule ever damaged a disk";
  EXPECT_GT(replays, 0u) << "no recovery ever replayed durable state";
  EXPECT_GT(corruptions, 0u)
      << "injected damage was never detected by a checksum";
}

}  // namespace
}  // namespace paso
