// End-to-end tests of the PASO primitives over the full stack: simulator,
// bus, group layer, memory servers, runtime (Appendix A macro expansions),
// crash/recovery, and the Section 2 semantics checker on every history.
#include <gtest/gtest.h>

#include "paso/cluster.hpp"
#include "semantics/checker.hpp"

namespace paso {
namespace {

Schema task_schema(std::size_t partitions = 1) {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, partitions},
  });
}

Tuple task(std::int64_t key, const std::string& text) {
  return {Value{key}, Value{text}};
}

SearchCriterion by_key(std::int64_t key) {
  return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterConfig config() {
    ClusterConfig cfg;
    cfg.machines = 6;
    cfg.lambda = 2;
    return cfg;
  }

  void expect_clean_history(Cluster& cluster) {
    const auto result = semantics::check_history(cluster.history());
    EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                     ? ""
                                     : result.violations.front());
  }
};

TEST_F(ClusterTest, InsertThenReadFindsTheObject) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ProcessId p = cluster.process(MachineId{5});
  ASSERT_TRUE(cluster.insert_sync(p, task(7, "hello")));
  const auto found = cluster.read_sync(p, by_key(7));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(std::get<std::string>(found->fields[1]), "hello");
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, ReadOfAbsentKeyFails) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ProcessId p = cluster.process(MachineId{0});
  ASSERT_TRUE(cluster.insert_sync(p, task(1, "x")));
  EXPECT_FALSE(cluster.read_sync(p, by_key(2)).has_value());
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, InsertReplicatesToEveryBasicSupportMember) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ProcessId p = cluster.process(MachineId{4});
  ASSERT_TRUE(cluster.insert_sync(p, task(3, "replicated")));
  const ClassId cls = *cluster.schema().classify(task(3, "replicated"));
  for (const MachineId m : cluster.basic_support(cls)) {
    EXPECT_EQ(cluster.server(m).live_count(cls), 1u) << m;
  }
}

TEST_F(ClusterTest, ReadDelRemovesEverywhereExactlyOnce) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ProcessId p = cluster.process(MachineId{1});
  ASSERT_TRUE(cluster.insert_sync(p, task(9, "once")));
  const auto taken = cluster.read_del_sync(p, by_key(9));
  ASSERT_TRUE(taken.has_value());
  EXPECT_FALSE(cluster.read_del_sync(p, by_key(9)).has_value());
  EXPECT_FALSE(cluster.read_sync(p, by_key(9)).has_value());
  const ClassId cls = *cluster.schema().classify(task(9, "once"));
  for (const MachineId m : cluster.basic_support(cls)) {
    EXPECT_EQ(cluster.server(m).live_count(cls), 0u) << m;
  }
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, CompetingReadDelsGetDistinctObjects) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ProcessId a = cluster.process(MachineId{0});
  const ProcessId b = cluster.process(MachineId{3});
  ASSERT_TRUE(cluster.insert_sync(a, task(5, "one")));
  ASSERT_TRUE(cluster.insert_sync(a, task(5, "two")));

  // Issue both read&dels concurrently, then run the simulator to quiescence.
  SearchResponse ra, rb;
  int done = 0;
  cluster.runtime(a.machine).read_del(a, by_key(5), [&](SearchResponse r) {
    ra = std::move(r);
    ++done;
  });
  cluster.runtime(b.machine).read_del(b, by_key(5), [&](SearchResponse r) {
    rb = std::move(r);
    ++done;
  });
  cluster.simulator().run_while_pending([&] { return done == 2; });
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_NE(ra->id, rb->id);  // A2: at most one read&del returns an object
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, LocalReadCostsNoMessages) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ClassId cls = *cluster.schema().classify(task(1, "x"));
  const MachineId member = cluster.basic_support(cls).front();
  const ProcessId p = cluster.process(member);
  ASSERT_TRUE(cluster.insert_sync(p, task(1, "x")));

  const auto before = cluster.ledger().snapshot();
  const auto found = cluster.read_sync(p, by_key(1));
  ASSERT_TRUE(found.has_value());
  const CostTriple cost = cluster.ledger().since(before);
  EXPECT_DOUBLE_EQ(cost.msg_cost, 0.0);  // Figure 1: read with M in C
  EXPECT_DOUBLE_EQ(cost.work, 1.0);      // one Q(l) lookup
}

TEST_F(ClusterTest, RemoteReadUsesReadGroupOfLambdaPlusOne) {
  ClusterConfig cfg = config();
  cfg.runtime.read_route = ReadRoute::kBasicSupport;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ClassId cls = *cluster.schema().classify(task(1, "x"));
  // Pick a reader machine outside the basic support.
  MachineId outside{0};
  const auto support = cluster.basic_support(cls);
  for (std::uint32_t m = 0; m < cluster.machine_count(); ++m) {
    if (std::find(support.begin(), support.end(), MachineId{m}) ==
        support.end()) {
      outside = MachineId{m};
      break;
    }
  }
  const ProcessId writer = cluster.process(support.front());
  ASSERT_TRUE(cluster.insert_sync(writer, task(1, "x")));

  const auto before = cluster.ledger().snapshot();
  const auto found = cluster.read_sync(cluster.process(outside), by_key(1));
  ASSERT_TRUE(found.has_value());
  const CostTriple cost = cluster.ledger().since(before);
  // lambda + 1 = 3 servers did one lookup each.
  EXPECT_DOUBLE_EQ(cost.work, 3.0);
  EXPECT_GT(cost.msg_cost, 0.0);
}

TEST_F(ClusterTest, SurvivesLambdaCrashes) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ClassId cls = *cluster.schema().classify(task(1, "x"));
  const auto support = cluster.basic_support(cls);
  const ProcessId p = cluster.process(support[2]);
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(cluster.insert_sync(p, task(k, "v")));
  }
  // Crash lambda = 2 of the 3 basic members; data must survive on the third.
  cluster.crash(support[0]);
  cluster.crash(support[1]);
  cluster.settle();
  EXPECT_TRUE(cluster.fault_tolerance_condition_holds());
  for (int k = 0; k < 20; ++k) {
    EXPECT_TRUE(cluster.read_sync(p, by_key(k)).has_value()) << k;
  }
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, RecoveryRunsInitializationAndRestoresReplicas) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ClassId cls = *cluster.schema().classify(task(1, "x"));
  const auto support = cluster.basic_support(cls);
  const ProcessId p = cluster.process(MachineId{5});
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(cluster.insert_sync(p, task(k, "v")));
  }
  cluster.crash(support[0]);
  cluster.settle();
  EXPECT_EQ(cluster.server(support[0]).live_count(cls), 0u);  // memory erased
  // More activity while the machine is down.
  ASSERT_TRUE(cluster.insert_sync(p, task(100, "late")));
  cluster.recover(support[0]);
  cluster.settle();
  // Initialization (g-join state transfer) restored everything, including
  // the object inserted during the outage.
  EXPECT_EQ(cluster.server(support[0]).live_count(cls), 11u);
  EXPECT_TRUE(cluster.groups().is_member(
      cluster.schema().group_name(cls), support[0]));
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, PartitionedSchemaRoutesAcrossClasses) {
  Cluster cluster(task_schema(4), config());
  cluster.assign_basic_support();
  const ProcessId p = cluster.process(MachineId{0});
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(cluster.insert_sync(p, task(k, "x")));
  }
  // Exact-key reads pin one partition; a range read must walk sc-list
  // across all partitions and still find everything.
  for (int k = 0; k < 16; ++k) {
    EXPECT_TRUE(cluster.read_sync(p, by_key(k)).has_value());
  }
  const auto ranged = cluster.read_sync(
      p, criterion(IntRange{0, 100}, TypedAny{FieldType::kText}));
  EXPECT_TRUE(ranged.has_value());
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, FaultToleranceConditionDetectsViolation) {
  ClusterConfig cfg = config();
  cfg.lambda = 1;  // basic support of 2
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  EXPECT_TRUE(cluster.fault_tolerance_condition_holds());
  const ClassId cls{0};
  const auto support = cluster.basic_support(cls);
  cluster.crash(support[0]);
  cluster.settle();
  EXPECT_TRUE(cluster.fault_tolerance_condition_holds());
  cluster.crash(support[1]);  // beyond lambda: condition must fail
  cluster.settle();
  EXPECT_FALSE(cluster.fault_tolerance_condition_holds());
}

TEST_F(ClusterTest, ObjectIdsStayUniqueAcrossCrashRestart) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const MachineId m{5};
  const ProcessId p = cluster.process(m);
  ASSERT_TRUE(cluster.insert_sync(p, task(1, "before")));
  cluster.crash(m);
  cluster.settle();
  cluster.recover(m);
  cluster.settle();
  ASSERT_TRUE(cluster.insert_sync(p, task(1, "after")));
  // Both objects coexist: identities were not reused (A2).
  ASSERT_TRUE(cluster.read_del_sync(p, by_key(1)).has_value());
  ASSERT_TRUE(cluster.read_del_sync(p, by_key(1)).has_value());
  expect_clean_history(cluster);
}

TEST_F(ClusterTest, ReadPrefersLocalOverRemote) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ClassId cls{0};
  const auto support = cluster.basic_support(cls);
  const ProcessId local = cluster.process(support[1]);
  ASSERT_TRUE(cluster.insert_sync(local, task(1, "x")));
  const auto before = cluster.ledger().snapshot();
  ASSERT_TRUE(cluster.read_sync(local, by_key(1)).has_value());
  EXPECT_DOUBLE_EQ(cluster.ledger().since(before).msg_cost, 0.0);
}

TEST_F(ClusterTest, InsertIntoUnsupportedClassThrows) {
  Cluster cluster(task_schema(), config());
  cluster.assign_basic_support();
  const ProcessId p = cluster.process(MachineId{0});
  EXPECT_THROW(
      cluster.runtime(p.machine).insert(p, Tuple{Value{true}}, {}),
      InvariantViolation);
}

}  // namespace
}  // namespace paso
