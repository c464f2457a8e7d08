// Gcast operation batching: same-route store/mem-read/remove gcasts issued
// within RuntimeConfig::batch_window coalesce into one BatchMsg — one 2*alpha
// per batch in the cost model — while every op keeps its own identity,
// response and retry semantics. The window=0 default must be byte-exact
// pass-through.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "paso/cluster.hpp"
#include "semantics/checker.hpp"

namespace paso {
namespace {

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

Tuple task(std::int64_t key, const std::string& payload = "v") {
  return {Value{key}, Value{payload}};
}

void expect_history_ok(Cluster& cluster) {
  const auto check =
      semantics::check_history(cluster.history(), cluster.run_context());
  EXPECT_TRUE(check.ok()) << (check.violations.empty()
                                  ? ""
                                  : check.violations.front());
}

TEST(BatchingTest, WindowZeroNeverBatches) {
  ClusterConfig cfg;
  cfg.machines = 4;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ProcessId driver = cluster.process(MachineId{3});
  PasoRuntime& home = cluster.runtime(MachineId{3});

  for (std::int64_t key = 0; key < 8; ++key) {
    home.insert(driver, task(key));
  }
  cluster.settle();

  EXPECT_EQ(home.batcher().batches(), 0u);
  EXPECT_EQ(home.batcher().batched_ops(), 0u);
  EXPECT_EQ(cluster.ledger().per_tag().count("batch"), 0u);
  EXPECT_EQ(cluster.server(MachineId{0}).live_count(ClassId{0}), 8u);
  expect_history_ok(cluster);
}

TEST(BatchingTest, BurstCoalescesAndRespectsMaxBatch) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.runtime.batch_window = 50;
  cfg.runtime.max_batch = 8;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ProcessId driver = cluster.process(MachineId{3});
  PasoRuntime& home = cluster.runtime(MachineId{3});

  // 20 same-class inserts in one instant: two full batches dispatch on the
  // max_batch trigger, the 4-op tail waits out the window.
  std::size_t done = 0;
  for (std::int64_t key = 0; key < 20; ++key) {
    home.insert(driver, task(key), [&done] { ++done; });
  }
  cluster.settle();

  EXPECT_EQ(done, 20u);
  EXPECT_EQ(home.batcher().batches(), 3u);
  EXPECT_EQ(home.batcher().batched_ops(), 20u);
  ASSERT_EQ(cluster.ledger().per_tag().count("batch"), 1u);
  EXPECT_EQ(cluster.server(MachineId{0}).live_count(ClassId{0}), 20u);
  EXPECT_EQ(cluster.server(MachineId{1}).live_count(ClassId{0}), 20u);
  expect_history_ok(cluster);
}

TEST(BatchingTest, BatchingReducesMsgCostOnABurst) {
  // The same 16-insert burst, batched vs unbatched: the batched run pays
  // 2*alpha once per batch instead of once per op and must come out well
  // under the unbatched ledger total.
  const auto run_burst = [](sim::SimTime window) {
    ClusterConfig cfg;
    cfg.machines = 4;
    cfg.runtime.batch_window = window;
    cfg.runtime.max_batch = 64;
    Cluster cluster(task_schema(), cfg);
    cluster.assign_basic_support();
    const ProcessId driver = cluster.process(MachineId{3});
    PasoRuntime& home = cluster.runtime(MachineId{3});
    const auto before = cluster.ledger().snapshot();
    for (std::int64_t key = 0; key < 16; ++key) {
      home.insert(driver, task(key));
    }
    cluster.settle();
    return cluster.ledger().since(before).msg_cost;
  };

  const Cost unbatched = run_burst(0);
  const Cost batched = run_burst(50);
  EXPECT_LT(batched, unbatched);
  EXPECT_GT(unbatched, batched * 1.5)
      << "batching saved less than a third of the burst's msg-cost";
}

TEST(BatchingTest, DeadlineAlreadyDueDispatchesSynchronously) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.runtime.batch_window = 100;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  PasoRuntime& home = cluster.runtime(MachineId{3});
  const std::string group = cluster.schema().group_name(ClassId{0});
  const auto store_of = [&](std::uint64_t seq) {
    PasoObject object;
    object.id = ObjectId{cluster.process(MachineId{3}), seq};
    object.fields = task(static_cast<std::int64_t>(seq));
    return StoreMsg{ClassId{0}, std::move(object)};
  };

  // An op whose latest_dispatch has already arrived (a deadline-driven retry
  // re-issued at or past its cap) must go out synchronously. The regression:
  // the window clamp parked it behind a timer scheduled at `now`, so it sat
  // queued — and collected later ops into its batch — until the simulator
  // processed another event.
  home.batcher().gcast(group, store_of(900), {}, cluster.simulator().now());
  EXPECT_EQ(home.batcher().queued(), 0u)
      << "due op parked behind a timer instead of dispatching";
  EXPECT_EQ(cluster.ledger().per_tag().count("store"), 1u)
      << "store gcast never left the machine synchronously";

  // Companion: the same op with no deadline waits out the window.
  home.batcher().gcast(group, store_of(901));
  EXPECT_EQ(home.batcher().queued(), 1u);
  cluster.settle();
  EXPECT_EQ(home.batcher().queued(), 0u);
  EXPECT_EQ(cluster.server(MachineId{0}).live_count(ClassId{0}), 2u);
}

TEST(BatchingTest, OpsInOneBatchApplyInIssueOrder) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.runtime.batch_window = 100;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ProcessId driver = cluster.process(MachineId{3});
  PasoRuntime& home = cluster.runtime(MachineId{3});

  // A store and a read&del of the same key issued back-to-back land in one
  // batch; the removal runs after the store and must claim the object.
  home.insert(driver, task(42, "payload"));
  SearchResponse claimed;
  bool answered = false;
  home.read_del(driver, criterion(Exact{Value{42ll}}, AnyField{}),
                [&](SearchResponse r) {
                  claimed = std::move(r);
                  answered = true;
                });
  cluster.settle();

  ASSERT_TRUE(answered);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(std::get<std::string>(claimed->fields[1]), "payload");
  EXPECT_GE(home.batcher().batched_ops(), 2u);
  EXPECT_EQ(cluster.server(MachineId{0}).live_count(ClassId{0}), 0u);
  expect_history_ok(cluster);
}

TEST(BatchingTest, RetriedInsertStaysIdempotentUnderBatching) {
  ClusterConfig cfg;
  cfg.machines = 3;
  cfg.lambda = 1;
  cfg.runtime.retry_backoff = 50;
  cfg.runtime.batch_window = 40;
  cfg.runtime.max_batch = 8;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ClassId cls{0};
  const ProcessId driver = cluster.process(MachineId{2});
  PasoRuntime& home = cluster.runtime(MachineId{2});

  // Slow the response path so the robust op re-sends its StoreMsg; the
  // retry travels in a fresh (possibly batched) gcast but carries the same
  // identity, so the write group must refuse the duplicate.
  cluster.network().set_delay_window(MachineId{2},
                                     cluster.simulator().now() + 500, 400);
  std::vector<OpReport> reports;
  home.insert_robust(driver, task(7),
                     [&reports](OpReport r) { reports.push_back(r); });
  cluster.settle();

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].status, OpStatus::kOk);
  EXPECT_GE(reports[0].attempts, 2u) << "delay window never forced a retry";
  std::uint64_t refused = 0;
  for (std::uint32_t m = 0; m < cfg.machines; ++m) {
    refused += cluster.server(MachineId{m}).duplicates_refused();
  }
  EXPECT_GE(refused, 1u) << "no server saw the duplicate store";
  EXPECT_EQ(cluster.server(MachineId{0}).live_count(cls), 1u);
  EXPECT_EQ(cluster.server(MachineId{1}).live_count(cls), 1u);
  expect_history_ok(cluster);
}

TEST(BatchingTest, QueuedBatchDiesWithTheMachine) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.runtime.batch_window = 200;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ProcessId driver = cluster.process(MachineId{3});
  PasoRuntime& home = cluster.runtime(MachineId{3});

  // Ops still sitting in the batcher's window when the issuer crashes are
  // client-side state: they vanish with the machine — no partial gcast, no
  // stray callbacks, no timer firing on a dead issuer.
  bool fired = false;
  home.insert(driver, task(1), [&fired] { fired = true; });
  home.insert(driver, task(2), [&fired] { fired = true; });
  cluster.crash(MachineId{3});
  cluster.settle();

  EXPECT_FALSE(fired);
  EXPECT_EQ(cluster.server(MachineId{0}).live_count(ClassId{0}), 0u);
  EXPECT_EQ(cluster.server(MachineId{1}).live_count(ClassId{0}), 0u);
  expect_history_ok(cluster);
}

TEST(BatchingTest, RecoveryStateTransferMatchesUnderBatchedTraffic) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;
  cfg.runtime.batch_window = 40;
  cfg.runtime.max_batch = 8;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();  // wg(task) = {m0, m1}
  const ClassId cls{0};
  const MachineId survivor{0};
  const MachineId victim{1};
  const ProcessId driver = cluster.process(MachineId{3});
  PasoRuntime& home = cluster.runtime(MachineId{3});

  // A batched burst lands, the member crashes, more batched traffic flows
  // while it is down, and the recovered replica must still equal the
  // survivor byte for byte — batches travel through the same total order
  // and never through the state-transfer blob twice.
  std::size_t done = 0;
  for (std::int64_t key = 0; key < 6; ++key) {
    home.insert(driver, task(key), [&done] { ++done; });
  }
  cluster.settle();
  ASSERT_EQ(done, 6u);

  cluster.crash(victim);
  cluster.settle_for(200);  // failure detection expels the victim
  ASSERT_FALSE(cluster.server(victim).supports(cls));

  for (std::int64_t key = 6; key < 10; ++key) {
    home.insert(driver, task(key), [&done] { ++done; });
  }
  SearchResponse claimed;
  home.read_del(driver, criterion(Exact{Value{7ll}}, AnyField{}),
                [&claimed](SearchResponse r) { claimed = std::move(r); });
  cluster.settle();
  ASSERT_EQ(done, 10u);
  ASSERT_TRUE(claimed.has_value());

  bool initialized = false;
  cluster.recover(victim, [&initialized] { initialized = true; });
  cluster.settle();
  ASSERT_TRUE(initialized);

  EXPECT_EQ(cluster.server(survivor).live_count(cls),
            cluster.server(victim).live_count(cls));
  EXPECT_EQ(cluster.server(survivor).class_state_bytes(cls),
            cluster.server(victim).class_state_bytes(cls));
  for (std::int64_t key = 0; key < 10; ++key) {
    const SearchCriterion sc = criterion(Exact{Value{key}}, AnyField{});
    const auto a = cluster.server(survivor).local_find(cls, sc);
    const auto b = cluster.server(victim).local_find(cls, sc);
    ASSERT_EQ(a.has_value(), b.has_value()) << "key " << key;
    if (a) EXPECT_EQ(a->id, b->id) << "key " << key;
  }
  expect_history_ok(cluster);
}

TEST(BatchingTest, MixedReadsAndRemovesKeepTheirOwnResponses) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.runtime.batch_window = 60;
  cfg.runtime.max_batch = 16;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ProcessId driver = cluster.process(MachineId{3});
  PasoRuntime& home = cluster.runtime(MachineId{3});

  for (std::int64_t key = 0; key < 4; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key, "k" + std::to_string(key))));
  }

  // Four reads and a remove issued in one window: one gathered response,
  // five distinct answers, each routed back to its own callback.
  std::vector<std::pair<std::int64_t, SearchResponse>> answers;
  for (std::int64_t key = 3; key >= 0; --key) {
    home.read(driver, criterion(Exact{Value{key}}, AnyField{}),
              [&answers, key](SearchResponse r) {
                answers.emplace_back(key, std::move(r));
              });
  }
  SearchResponse removed;
  home.read_del(driver, criterion(Exact{Value{2ll}}, AnyField{}),
                [&removed](SearchResponse r) { removed = std::move(r); });
  cluster.settle();

  ASSERT_EQ(answers.size(), 4u);
  for (const auto& [key, response] : answers) {
    ASSERT_TRUE(response.has_value()) << "key " << key;
    EXPECT_EQ(std::get<std::string>(response->fields[1]),
              "k" + std::to_string(key));
  }
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(cluster.server(MachineId{0}).live_count(ClassId{0}), 3u);
  expect_history_ok(cluster);
}

}  // namespace
}  // namespace paso
