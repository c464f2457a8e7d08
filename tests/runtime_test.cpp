// Focused tests of PasoRuntime behaviour: sc-list walking order, read-group
// routing, in-flight accounting, membership request guards, and the
// crashed-machine issue guards.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "paso/cluster.hpp"

namespace paso {
namespace {

Schema partitioned_schema() {
  return Schema({
      ClassSpec{"kv", {FieldType::kInt, FieldType::kText}, 0, 4},
  });
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : cluster_(partitioned_schema(), config()) {
    cluster_.assign_basic_support();
  }

  static ClusterConfig config() {
    ClusterConfig cfg;
    cfg.machines = 6;
    cfg.lambda = 1;
    return cfg;
  }

  Cluster cluster_;
};

TEST_F(RuntimeTest, ExactKeyReadProbesExactlyOnePartition) {
  const ProcessId writer = cluster_.process(MachineId{0});
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(cluster_.insert_sync(
        writer, {Value{std::int64_t{k}}, Value{std::string{"x"}}}));
  }
  // A reader outside every write group with an exact key: the sc-list has
  // one candidate class, so exactly one mem-read gcast goes out.
  const ProcessId reader = cluster_.process(MachineId{5});
  const auto tags_before = cluster_.ledger().per_tag();
  const std::uint64_t reads_before =
      tags_before.contains("mem-read") ? tags_before.at("mem-read").messages
                                       : 0;
  ASSERT_TRUE(cluster_
                  .read_sync(reader, criterion(Exact{Value{std::int64_t{3}}},
                                               TypedAny{FieldType::kText}))
                  .has_value());
  const std::uint64_t reads_after =
      cluster_.ledger().per_tag().at("mem-read").messages;
  // lambda + 1 = 2 fan-out messages for the single probed class.
  EXPECT_EQ(reads_after - reads_before, 2u);
}

TEST_F(RuntimeTest, WildcardReadWalksPartitionsUntilHit) {
  const ProcessId writer = cluster_.process(MachineId{0});
  ASSERT_TRUE(cluster_.insert_sync(
      writer, {Value{std::int64_t{5}}, Value{std::string{"only"}}}));
  const ProcessId reader = cluster_.process(MachineId{5});
  // Wildcard key: sc-list = all 4 partitions; the chain stops at the first
  // class that answers, so the fail probes cost but do not multiply.
  const auto found = cluster_.read_sync(
      reader, criterion(TypedAny{FieldType::kInt}, TextPrefix{"on"}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(std::get<std::string>(found->fields[1]), "only");
}

TEST_F(RuntimeTest, FailedReadProbesEveryCandidateClass) {
  const ProcessId reader = cluster_.process(MachineId{5});
  cluster_.ledger().reset();
  EXPECT_FALSE(cluster_
                   .read_sync(reader, criterion(TypedAny{FieldType::kInt},
                                                TypedAny{FieldType::kText}))
                   .has_value());
  // All 4 partitions probed with 2-member read groups = 8 fan-out messages.
  EXPECT_EQ(cluster_.ledger().per_tag().at("mem-read").messages, 8u);
}

TEST_F(RuntimeTest, InflightTracksOutstandingOperations) {
  PasoRuntime& runtime = cluster_.runtime(MachineId{4});
  const ProcessId p = cluster_.process(MachineId{4});
  EXPECT_EQ(runtime.inflight(), 0u);
  int done = 0;
  runtime.insert(p, {Value{std::int64_t{1}}, Value{std::string{"a"}}},
                 [&done] { ++done; });
  runtime.read(p, criterion(Exact{Value{std::int64_t{1}}}, AnyField{}),
               [&done](SearchResponse) { ++done; });
  EXPECT_EQ(runtime.inflight(), 2u);
  cluster_.simulator().run_while_pending([&done] { return done == 2; });
  EXPECT_EQ(runtime.inflight(), 0u);
}

TEST_F(RuntimeTest, BlockingOpCountsUntilFinished) {
  PasoRuntime& runtime = cluster_.runtime(MachineId{4});
  const ProcessId p = cluster_.process(MachineId{4});
  bool done = false;
  runtime.read_blocking(p, criterion(Exact{Value{std::int64_t{77}}},
                                     AnyField{}),
                        [&done](SearchResponse) { done = true; },
                        BlockingMode::kMarker,
                        cluster_.simulator().now() + 2000);
  EXPECT_EQ(runtime.inflight(), 1u);
  cluster_.simulator().run_while_pending([&done] { return done; });
  EXPECT_EQ(runtime.inflight(), 0u);
}

TEST_F(RuntimeTest, JoinRequestsAreIdempotentWhilePending) {
  PasoRuntime& runtime = cluster_.runtime(MachineId{5});
  const ClassId cls{0};
  runtime.request_join(cls);
  runtime.request_join(cls);  // duplicate while in flight: ignored
  cluster_.settle();
  EXPECT_TRUE(runtime.is_member(cls));
  const auto view = cluster_.groups().view_of(
      cluster_.schema().group_name(cls));
  EXPECT_EQ(view.size(), 3u);  // 2 basic + 1 joiner, not 4
}

TEST_F(RuntimeTest, LeaveThenRejoinWorks) {
  PasoRuntime& runtime = cluster_.runtime(MachineId{5});
  const ClassId cls{0};
  runtime.request_join(cls);
  cluster_.settle();
  ASSERT_TRUE(runtime.is_member(cls));
  runtime.request_leave(cls);
  cluster_.settle();
  EXPECT_FALSE(runtime.is_member(cls));
  EXPECT_FALSE(runtime.server().supports(cls));  // state erased
  runtime.request_join(cls);
  cluster_.settle();
  EXPECT_TRUE(runtime.is_member(cls));
}

TEST_F(RuntimeTest, OperationsFromCrashedMachineAreRejected) {
  cluster_.crash(MachineId{4});
  cluster_.settle();
  PasoRuntime& runtime = cluster_.runtime(MachineId{4});
  const ProcessId p = cluster_.process(MachineId{4});
  EXPECT_THROW(
      runtime.insert(p, {Value{std::int64_t{1}}, Value{std::string{"x"}}}),
      InvariantViolation);
  EXPECT_THROW(runtime.read(p, criterion(AnyField{}, AnyField{}),
                            [](SearchResponse) {}),
               InvariantViolation);
  EXPECT_THROW(runtime.read_del(p, criterion(AnyField{}, AnyField{}),
                                [](SearchResponse) {}),
               InvariantViolation);
  EXPECT_THROW(runtime.read_blocking(p, criterion(AnyField{}, AnyField{}),
                                     [](SearchResponse) {}),
               InvariantViolation);
}

TEST_F(RuntimeTest, InsertAssignsMonotoneSequencePerProcess) {
  // Sequences are numbered per (process, class): the class + 1 in the bits
  // above 40, a counter from 0 below. One creator's identities in one class
  // are consecutive, and identities are unique across classes.
  PasoRuntime& runtime = cluster_.runtime(MachineId{0});
  const ProcessId a = cluster_.process(MachineId{0}, 0);
  const ProcessId b = cluster_.process(MachineId{0}, 1);
  const auto tuple = [](std::int64_t key) {
    return Tuple{Value{key}, Value{std::string{"x"}}};
  };
  std::map<std::uint32_t, std::vector<std::uint64_t>> per_class;
  std::set<ObjectId> ids;
  for (std::int64_t key = 0; key < 24; ++key) {
    const ClassId cls = *cluster_.schema().classify(tuple(key));
    const ObjectId id = key % 5 == 4
                            ? runtime.insert_robust(a, tuple(key), nullptr)
                            : runtime.insert(a, tuple(key));
    EXPECT_EQ(id.creator, a);
    EXPECT_EQ(id.sequence >> 40, cls.value + 1u) << "key " << key;
    EXPECT_TRUE(ids.insert(id).second) << "identity reused at key " << key;
    per_class[cls.value].push_back(id.sequence);
  }
  ASSERT_GT(per_class.size(), 1u) << "the keys should span classes";
  for (const auto& [cls, sequences] : per_class) {
    EXPECT_EQ(sequences.front() & ((std::uint64_t{1} << 40) - 1), 0u);
    for (std::size_t i = 1; i < sequences.size(); ++i) {
      EXPECT_EQ(sequences[i], sequences[i - 1] + 1) << "class " << cls;
    }
  }
  // Per-process numbering: b's first insert into a class starts at 0.
  const ClassId first = *cluster_.schema().classify(tuple(0));
  const ObjectId b0 = runtime.insert(b, tuple(0));
  EXPECT_EQ(b0.sequence, (first.value + std::uint64_t{1}) << 40);
  EXPECT_FALSE(ids.contains(b0));
  cluster_.settle();
}

TEST_F(RuntimeTest, ReadGroupsCanBeDisabledPerCluster) {
  ClusterConfig cfg = config();
  cfg.runtime.use_read_groups = false;
  Cluster full(partitioned_schema(), cfg);
  full.assign_basic_support();
  // Grow one write group to 4 members.
  const ClassId cls = *full.schema().classify(
      {Value{std::int64_t{3}}, Value{std::string{"x"}}});
  for (std::uint32_t m = 0; m < 4; ++m) {
    full.runtime(MachineId{m}).request_join(cls);
  }
  full.settle();
  const std::size_t wg = full.groups().group_size(full.schema().group_name(cls));
  ASSERT_GE(wg, 4u);
  ASSERT_TRUE(full.insert_sync(
      full.process(MachineId{0}),
      {Value{std::int64_t{3}}, Value{std::string{"x"}}}));
  full.ledger().reset();
  ASSERT_TRUE(full.read_sync(full.process(MachineId{5}),
                             criterion(Exact{Value{std::int64_t{3}}},
                                       TypedAny{FieldType::kText}))
                  .has_value());
  // Without read groups the mem-read fans out to the whole write group.
  EXPECT_EQ(full.ledger().per_tag().at("mem-read").messages, wg);
}

}  // namespace
}  // namespace paso
