// Seeded chaos sweep for the query engine: the same acceptance harness as
// chaos_property_test — 67 seeds x 3 workload shapes = 201 generated fault
// schedules — but every class store is an ordered IndexedStore (sorted
// twins + selectivity planner) and the workloads speak the full criteria
// grammar: Range with open/exclusive bounds, TextPrefix, ranked TopK
// reads and compound multi-field criteria. Batching and durable
// persistence are on. The Section 2 axioms must hold across crashes and
// recoveries, every operation must resolve, a seed must replay to an
// identical timeline and ledger, and with observation on the per-op trace
// records must partition the ledger's message cost exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "paso/chaos.hpp"
#include "semantics/checker.hpp"
#include "storage/indexed_store.hpp"

namespace paso {
namespace {

enum class Workload { kRangeSweep, kPrefixRank, kCompoundBlocking };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kRangeSweep:
      return "range-sweep";
    case Workload::kPrefixRank:
      return "prefix-rank";
    case Workload::kCompoundBlocking:
      return "compound-blocking";
  }
  return "?";
}

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 2},
  });
}

Tuple task(std::int64_t key, const std::string& text) {
  return {Value{key}, Value{text}};
}

constexpr std::size_t kMachines = 6;
constexpr std::uint32_t kDriver = 5;  // immune; issues the scripted workload

struct RunResult {
  std::string timeline;
  std::size_t history_size = 0;
  double msg_cost = 0;
  double work = 0;
  std::size_t inflight = 0;
  int reports = 0;
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
  cfg.vsync.retransmit_timeout = 300;
  cfg.runtime.op_deadline = 4000;
  cfg.runtime.retry_backoff = 500;
  cfg.runtime.pessimistic_timeouts = true;
  cfg.runtime.batch_window = 40;
  cfg.runtime.max_batch = 8;
  cfg.persistence.enabled = true;
  cfg.persistence.checkpoint_every_bytes = 2 * 1024;
  cfg.observe = observe;
  // Every replica runs the full query engine: both fields indexed, sorted
  // twins on, so range walks, prefix walks, ranked reads and the planner
  // are all in the fault path (and in every state-transfer blob).
  cfg.store_factory = [](ClassId) {
    return std::make_unique<storage::IndexedStore>(
        std::vector<std::size_t>{0, 1}, storage::IndexedStore::Options{true});
  };
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();

  ChaosSchedule::GenOptions gen;
  gen.horizon = 12000;
  gen.detection_delay = cluster.groups().options().failure_detection_delay;
  gen.immune = {kDriver};
  ChaosEngine engine(cluster, ChaosSchedule::generate(seed, kMachines, gen));
  engine.start();

  RunResult out;
  auto report = [&out](OpReport) { ++out.reports; };

  Rng rng(seed * 977 + static_cast<std::uint64_t>(workload) * 131 + 1);
  const ProcessId driver = cluster.process(MachineId{kDriver});
  PasoRuntime& home = cluster.runtime(MachineId{kDriver});

  for (int round = 0; round < 45; ++round) {
    switch (workload) {
      case Workload::kRangeSweep: {
        // Interval store: inserts scatter keys; readers take slices with
        // every bound shape, consumers drain half-open intervals.
        const std::int64_t key = static_cast<std::int64_t>(rng.index(40));
        const double dice = rng.uniform01();
        if (dice < 0.5) {
          home.insert_robust(driver, task(key, "v"), report);
        } else if (dice < 0.8) {
          const std::int64_t lo = static_cast<std::int64_t>(rng.index(30));
          home.read_robust(
              driver,
              criterion(range_between(Value{lo}, Value{lo + 8},
                                      /*lo_exclusive=*/rng.chance(0.5)),
                        AnyField{}),
              report);
        } else {
          home.read_del_robust(
              driver,
              criterion(range_at_least(Value{static_cast<std::int64_t>(
                            rng.index(30))}),
                        AnyField{}),
              report);
        }
        break;
      }
      case Workload::kPrefixRank: {
        // Job board: names carry a type prefix; readers match by prefix,
        // the scheduler claims the highest-keyed job of a type (ranked
        // read&del — the sorted twin serves it in rank order).
        const std::int64_t key = static_cast<std::int64_t>(rng.index(20));
        const double dice = rng.uniform01();
        if (dice < 0.5) {
          const char* prefix = rng.chance(0.5) ? "job-" : "web-";
          home.insert_robust(
              driver, task(key, prefix + std::to_string(rng.index(4))),
              report);
        } else if (dice < 0.8) {
          home.read_robust(
              driver,
              criterion(TypedAny{FieldType::kInt},
                        TextPrefix{rng.chance(0.5) ? "job-" : "web-"}),
              report);
        } else {
          home.read_del_robust(
              driver,
              ranked(criterion(AnyField{}, AnyField{}),
                     TopK{0, 1, /*descending=*/true}),
              report);
        }
        break;
      }
      case Workload::kCompoundBlocking: {
        // Consumers block (deadline-bounded, marker or poll) on a range a
        // producer fills moments later; compound criteria mix an Exact
        // with a prefix so the planner has real choices to order.
        const std::int64_t key = 2000 + round;
        const sim::SimTime deadline = cluster.simulator().now() + 3000;
        home.read_blocking(
            driver,
            criterion(range_between(Value{key}, Value{key + 5}), AnyField{}),
            [](SearchResponse) {},
            round % 2 == 0 ? BlockingMode::kPoll : BlockingMode::kMarker,
            deadline);
        home.insert_robust(driver, task(key + 1, "c-" + std::to_string(round)),
                           report);
        home.read_robust(
            driver,
            criterion(Exact{Value{key + 1}}, TextPrefix{"c-"}), report);
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
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out.inflight += cluster.runtime(MachineId{m}).inflight();
  }
  out.violations =
      semantics::check_history(cluster.history(), cluster.run_context())
          .violations;
  if (observe) {
    out.traced_cost = cluster.tracer().traced_msg_cost();
    out.untraced_cost = cluster.tracer().untraced_msg_cost();
    out.spans = cluster.tracer().events().size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// The sweep: 67 seeds x 3 workloads = 201 schedules.

class QueryChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryChaosSweep, AxiomsHoldUnderRichQueries) {
  for (const Workload w : {Workload::kRangeSweep, Workload::kPrefixRank,
                           Workload::kCompoundBlocking}) {
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

INSTANTIATE_TEST_SUITE_P(Seeds, QueryChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 68));

// ---------------------------------------------------------------------------
// Determinism and exact cost reconciliation: a seed replays to the same
// timeline and ledger, and with tracing on, per-op spans partition the
// ledger's message cost with nothing lost — planner decisions included.

TEST(QueryChaosDeterminismTest, SameSeedReplaysAndTracesReconcile) {
  for (const std::uint64_t seed : {7ull, 19ull, 53ull}) {
    for (const Workload w : {Workload::kRangeSweep, Workload::kPrefixRank,
                             Workload::kCompoundBlocking}) {
      const RunResult base = run_chaos(seed, w);
      const RunResult traced = run_chaos(seed, w, /*observe=*/true);
      EXPECT_EQ(base.timeline, traced.timeline)
          << "seed " << seed << " workload " << workload_name(w);
      EXPECT_EQ(base.msg_cost, traced.msg_cost);
      EXPECT_EQ(base.work, traced.work);
      EXPECT_EQ(base.history_size, traced.history_size);
      EXPECT_EQ(traced.traced_cost + traced.untraced_cost, traced.msg_cost)
          << "trace records do not partition the ledger, seed " << seed
          << " workload " << workload_name(w);
      EXPECT_GT(traced.traced_cost, 0.0) << "no message attributed to any op";
      EXPECT_GT(traced.spans, 0u);
    }
  }
}

}  // namespace
}  // namespace paso
