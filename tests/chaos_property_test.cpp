// Seeded chaos sweep: 200+ generated fault schedules, three workload
// shapes, the lambda-bounded fault model checked after every workload
// round, and after every run the Section 2 axioms plus two liveness
// properties — no operation still in flight once the run settles, and the
// same seed replaying to an identical timeline and ledger. This is the
// acceptance harness for the crash-recovery hardening: drop windows force
// vsync retransmission, crashes force robust-op retries and view-change
// re-routing, and recovery epochs force state transfer, all under the
// checker's eye.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "paso/chaos.hpp"
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

/// Everything a chaos run produces that must replay identically.
struct RunResult {
  std::string timeline;
  std::size_t history_size = 0;
  double msg_cost = 0;
  double work = 0;
  std::uint64_t crashes = 0;
  std::uint64_t windows = 0;
  std::uint64_t retries = 0;
  std::size_t inflight = 0;
  int reports = 0;
  int timeouts = 0;
  int degraded = 0;
  double traced_cost = 0;
  double untraced_cost = 0;
  std::uint64_t spans = 0;
  std::vector<std::string> violations;
};

RunResult run_chaos(std::uint64_t seed, Workload workload,
                    bool observe = false) {
  ClusterConfig cfg;
  cfg.machines = kMachines;
  cfg.lambda = 2;
  cfg.vsync.retransmit_timeout = 300;  // drop windows need retransmission
  cfg.runtime.op_deadline = 4000;
  cfg.runtime.retry_backoff = 500;
  cfg.runtime.pessimistic_timeouts = true;
  // Batching on: the chaos sweep is the acceptance bar for coalesced gcasts
  // surviving crashes, drop windows and recovery epochs.
  cfg.runtime.batch_window = 40;
  cfg.runtime.max_batch = 8;
  cfg.observe = observe;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();

  ChaosSchedule::GenOptions gen;
  gen.horizon = 12000;
  gen.detection_delay = cluster.groups().options().failure_detection_delay;
  gen.immune = {kDriver};
  ChaosEngine engine(cluster,
                     ChaosSchedule::generate(seed, kMachines, gen));
  engine.start();

  RunResult out;
  auto report = [&out](OpReport r) {
    ++out.reports;
    if (r.status == OpStatus::kTimeout) ++out.timeouts;
    if (r.status == OpStatus::kDegraded) ++out.degraded;
  };

  Rng rng(seed * 977 + static_cast<std::uint64_t>(workload) * 131 + 1);
  const ProcessId driver = cluster.process(MachineId{kDriver});
  PasoRuntime& home = cluster.runtime(MachineId{kDriver});
  std::int64_t next_task = 0;

  for (int round = 0; round < 45; ++round) {
    switch (workload) {
      case Workload::kBagOfTasks: {
        // Producer enqueues on the driver; consumers on the other machines
        // claim tasks with robust read&del (idempotent removal tokens).
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
        // Consumer blocks (deadline-bounded) on a key its producer inserts
        // moments later: the Section 4.3 handshake under fire.
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
    // Section 3.1's fault model, every round: never more than lambda
    // machines down, and the fault-tolerance condition holds.
    std::size_t down = 0;
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      if (!cluster.is_up(MachineId{m})) ++down;
    }
    const bool condition = cluster.fault_tolerance_condition_holds();
    if (down > cfg.lambda || !condition) {
      out.violations.push_back(
          "round " + std::to_string(round) + ": " + std::to_string(down) +
          " machines down, fault-tolerance condition " +
          (condition ? "holds" : "broken"));
    }
  }

  // Drain past the horizon plus the longest deadline so every machine has
  // recovered and every operation has resolved one way or another.
  cluster.settle_for(12000);
  cluster.settle();

  out.timeline = engine.timeline();
  out.history_size = cluster.history().size();
  out.msg_cost = cluster.ledger().total_msg_cost();
  out.work = cluster.ledger().total_work();
  out.crashes = engine.crashes();
  out.windows = engine.windows();
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out.retries += cluster.runtime(MachineId{m}).retries();
    out.inflight += cluster.runtime(MachineId{m}).inflight();
  }
  for (std::string& violation :
       semantics::check_history(cluster.history(), cluster.run_context())
           .violations) {
    out.violations.push_back(std::move(violation));
  }
  if (observe) {
    out.traced_cost = cluster.tracer().traced_msg_cost();
    out.untraced_cost = cluster.tracer().untraced_msg_cost();
    out.spans = cluster.tracer().events().size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// The sweep: 67 seeds x 3 workloads = 201 schedules.

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, AxiomsHoldAndEveryOpResolves) {
  for (const Workload w :
       {Workload::kBagOfTasks, Workload::kKv, Workload::kCoordination}) {
    const RunResult r = run_chaos(GetParam(), w);
    EXPECT_TRUE(r.violations.empty())
        << "seed " << GetParam() << " workload " << workload_name(w) << ": "
        << (r.violations.empty() ? "" : r.violations.front());
    // No operation may outlive the run silently: everything either returned,
    // reported an explicit timeout/degradation, or died with a crash.
    EXPECT_EQ(r.inflight, 0u)
        << "seed " << GetParam() << " workload " << workload_name(w);
    EXPECT_GT(r.reports, 0) << "workload issued no robust ops?";
    EXPECT_FALSE(r.timeline.empty()) << "chaos engine applied no events";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 68));

// ---------------------------------------------------------------------------
// Replay determinism: the acceptance bar for the chaos engine.

TEST(ChaosDeterminismTest, SameSeedReplaysIdenticalTimelineAndLedger) {
  for (const std::uint64_t seed : {3ull, 17ull, 42ull}) {
    for (const Workload w :
         {Workload::kBagOfTasks, Workload::kKv, Workload::kCoordination}) {
      const RunResult a = run_chaos(seed, w);
      const RunResult b = run_chaos(seed, w);
      EXPECT_EQ(a.timeline, b.timeline)
          << "seed " << seed << " workload " << workload_name(w);
      EXPECT_EQ(a.msg_cost, b.msg_cost);
      EXPECT_EQ(a.work, b.work);
      EXPECT_EQ(a.history_size, b.history_size);
      EXPECT_EQ(a.crashes, b.crashes);
      EXPECT_EQ(a.windows, b.windows);
      EXPECT_EQ(a.retries, b.retries);
      EXPECT_EQ(a.reports, b.reports);
      EXPECT_EQ(a.timeouts, b.timeouts);
    }
  }
}

// ---------------------------------------------------------------------------
// Observability under chaos: tracing is pure observation, and its message
// records partition the ledger's cost exactly — nothing lost to a crash,
// retransmission or re-route, nothing double-counted by a shared batch.

TEST(ChaosObservabilityTest, TraceRecordsReconcileWithLedgerExactly) {
  for (const std::uint64_t seed : {5ull, 23ull, 41ull}) {
    for (const Workload w :
         {Workload::kBagOfTasks, Workload::kKv, Workload::kCoordination}) {
      const RunResult base = run_chaos(seed, w);
      const RunResult traced = run_chaos(seed, w, /*observe=*/true);
      // Observation must not perturb the run: same timeline, same ledger.
      EXPECT_EQ(base.timeline, traced.timeline)
          << "seed " << seed << " workload " << workload_name(w);
      EXPECT_EQ(base.msg_cost, traced.msg_cost);
      EXPECT_EQ(base.history_size, traced.history_size);
      // Every charged transmission is in exactly one bucket.
      EXPECT_EQ(traced.traced_cost + traced.untraced_cost, traced.msg_cost)
          << "seed " << seed << " workload " << workload_name(w)
          << ": cost lost or double-counted";
      EXPECT_GT(traced.traced_cost, 0.0) << "no message attributed to any op";
      EXPECT_GT(traced.spans, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule generation properties.

TEST(ChaosScheduleTest, GenerateIsDeterministicSortedAndBounded) {
  ChaosSchedule::GenOptions gen;
  gen.horizon = 10000;
  gen.crash_count = 3;
  gen.drop_count = 2;
  gen.delay_count = 2;
  gen.detection_delay = 50;
  gen.immune = {0};
  const ChaosSchedule a = ChaosSchedule::generate(99, 5, gen);
  const ChaosSchedule b = ChaosSchedule::generate(99, 5, gen);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.events.size(), 2 * gen.crash_count + gen.drop_count +
                                 gen.delay_count);

  const sim::SimTime floor = gen.detection_delay * 2 + 1;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const ChaosEvent& ev = a.events[i];
    EXPECT_NE(ev.machine, 0u) << "immune machine scheduled";
    EXPECT_LT(ev.machine, 5u);
    if (i > 0) EXPECT_GE(ev.at, a.events[i - 1].at) << "events not sorted";
    if (ev.kind == ChaosEvent::Kind::kDrop ||
        ev.kind == ChaosEvent::Kind::kDelay) {
      EXPECT_GT(ev.duration, 0);
      EXPECT_LE(ev.duration, gen.max_window);
    }
  }
  // Every crash pairs with a recover of the same machine, no sooner than
  // the detection floor (the failure detector must expel it first).
  std::size_t crashes = 0, recovers = 0;
  for (const ChaosEvent& ev : a.events) {
    if (ev.kind == ChaosEvent::Kind::kCrash) {
      ++crashes;
      bool paired = false;
      for (const ChaosEvent& other : a.events) {
        if (other.kind == ChaosEvent::Kind::kRecover &&
            other.machine == ev.machine && other.at >= ev.at + floor) {
          paired = true;
        }
      }
      EXPECT_TRUE(paired) << "crash of m" << ev.machine << " never recovers";
    } else if (ev.kind == ChaosEvent::Kind::kRecover) {
      ++recovers;
    }
  }
  EXPECT_EQ(crashes, gen.crash_count);
  EXPECT_EQ(recovers, gen.crash_count);

  // A different seed yields a different schedule.
  EXPECT_NE(a.to_string(), ChaosSchedule::generate(100, 5, gen).to_string());
}

TEST(ChaosEngineTest, DropWindowsRequireVsyncRetransmission) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;
  // No retransmit_timeout: a dropped gcast would strand its operation.
  Cluster cluster(task_schema(), cfg);
  ChaosSchedule schedule;
  schedule.horizon = 1000;
  schedule.events.push_back(
      ChaosEvent{ChaosEvent::Kind::kDrop, 100, 1, 200, 0});
  EXPECT_THROW(ChaosEngine(cluster, schedule), InvariantViolation);
}

}  // namespace
}  // namespace paso
