// Tests for read-group rotation (the load-balancing option) and for the
// adaptive policies across many classes with skewed popularity.
#include <gtest/gtest.h>

#include "adaptive/basic_policy.hpp"
#include "common/rng.hpp"
#include "paso/cluster.hpp"
#include "semantics/checker.hpp"

namespace paso {
namespace {

Schema kv_schema(std::size_t partitions = 1) {
  return Schema({ClassSpec{"kv", {FieldType::kInt, FieldType::kText},
                           0, partitions}});
}

SearchCriterion by_key(std::int64_t key) {
  return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
}

TEST(RotationTest, SpreadsQueryWorkAcrossTheWriteGroup) {
  ClusterConfig cfg;
  cfg.machines = 8;
  cfg.lambda = 1;
  cfg.runtime.read_route = ReadRoute::kRotating;
  Cluster cluster(kv_schema(), cfg);
  cluster.assign_basic_support();
  // Grow the write group to 4 members.
  for (std::uint32_t m = 0; m < 4; ++m) {
    cluster.runtime(MachineId{m}).request_join(ClassId{0});
  }
  cluster.settle();
  const ProcessId writer = cluster.process(MachineId{0});
  ASSERT_TRUE(cluster.insert_sync(
      writer, {Value{std::int64_t{1}}, Value{std::string{"x"}}}));
  cluster.ledger().reset();

  const ProcessId reader = cluster.process(MachineId{7});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.read_sync(reader, by_key(1)).has_value());
  }
  // Every write-group member served some queries.
  for (std::uint32_t m = 0; m < 4; ++m) {
    EXPECT_GT(cluster.ledger().work_of(MachineId{m}), 0.0) << "M" << m;
  }
  // And the total is still 2 servers per read (rg = lambda + 1).
  EXPECT_DOUBLE_EQ(cluster.ledger().total_work(), 80.0);
}

TEST(RotationTest, WithoutRotationOnlyTheBasicSupportServes) {
  ClusterConfig cfg;
  cfg.machines = 8;
  cfg.lambda = 1;
  cfg.runtime.read_route = ReadRoute::kBasicSupport;
  Cluster cluster(kv_schema(), cfg);
  cluster.assign_basic_support();
  for (std::uint32_t m = 0; m < 4; ++m) {
    cluster.runtime(MachineId{m}).request_join(ClassId{0});
  }
  cluster.settle();
  const auto support = cluster.basic_support(ClassId{0});
  const ProcessId writer = cluster.process(MachineId{0});
  ASSERT_TRUE(cluster.insert_sync(
      writer, {Value{std::int64_t{1}}, Value{std::string{"x"}}}));
  cluster.ledger().reset();
  const ProcessId reader = cluster.process(MachineId{7});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.read_sync(reader, by_key(1)).has_value());
  }
  Cost support_work = 0;
  for (const MachineId m : support) {
    support_work += cluster.ledger().work_of(m);
  }
  EXPECT_DOUBLE_EQ(support_work, cluster.ledger().total_work());
}

TEST(MultiClassAdaptiveTest, PoliciesAdaptIndependentlyPerClass) {
  // 8 hash-partitioned classes with Zipf-skewed key popularity: the reader
  // machine should join only the write groups of the classes its hot keys
  // live in, not all of them.
  ClusterConfig cfg;
  cfg.machines = 8;
  cfg.lambda = 1;
  Cluster cluster(kv_schema(8), cfg);
  cluster.assign_basic_support();
  adaptive::install_basic_policies(cluster,
                                   adaptive::BasicPolicyOptions{8, 1, false});

  const ProcessId writer = cluster.process(MachineId{0});
  for (std::int64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(cluster.insert_sync(
        writer, {Value{k}, Value{std::string{"x"}}}));
  }

  // Reader hammers two hot keys only.
  const MachineId reader_machine{7};
  const ProcessId reader = cluster.process(reader_machine);
  const std::int64_t hot_a = 3;
  const std::int64_t hot_b = 17;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.read_sync(reader, by_key(hot_a)).has_value());
    ASSERT_TRUE(cluster.read_sync(reader, by_key(hot_b)).has_value());
  }
  cluster.settle();

  const auto cls_a = *cluster.schema().classify(
      {Value{hot_a}, Value{std::string{"x"}}});
  const auto cls_b = *cluster.schema().classify(
      {Value{hot_b}, Value{std::string{"x"}}});
  EXPECT_TRUE(cluster.runtime(reader_machine).is_member(cls_a));
  EXPECT_TRUE(cluster.runtime(reader_machine).is_member(cls_b));
  // Cold classes stay unjoined — not counting classes where the reader
  // machine is basic support (it is a permanent member of those by
  // assignment, regardless of traffic).
  std::size_t adaptive_joins = 0;
  for (std::uint32_t c = 0; c < cluster.schema().class_count(); ++c) {
    const ClassId cls{c};
    if (!cluster.runtime(reader_machine).is_member(cls)) continue;
    const auto support = cluster.basic_support(cls);
    if (std::find(support.begin(), support.end(), reader_machine) !=
        support.end()) {
      continue;
    }
    ++adaptive_joins;
  }
  EXPECT_LE(adaptive_joins, 2u);

  const auto check = semantics::check_history(cluster.history());
  EXPECT_TRUE(check.ok()) << check.violations.front();
}

}  // namespace
}  // namespace paso
