// Focused tests of PasoRuntime behaviour: sc-list walking order, read-group
// routing, in-flight accounting, membership request guards, the
// crashed-machine issue guards, and the one op lifecycle every primitive
// shares.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "paso/cluster.hpp"
#include "semantics/checker.hpp"

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
  cfg.runtime.read_route = ReadRoute::kWriteGroup;
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

// --- the op lifecycle --------------------------------------------------------
//
// Every insert, read and read&del — plain, robust or blocking — opens once at
// issue and closes once at return. Each case issues one primitive of one
// family, batching off and on, with history and observability on, and
// checks after settle() that nothing is in flight, that every history record
// returned or was abandoned exactly once, and that every trace finished
// exactly once with the status the op reported.

enum class Family { kPlain, kRobust, kBlocking };

struct LifecycleCase {
  semantics::OpKind kind;
  Family family;
  bool batching;
};

std::string case_name(const LifecycleCase& c) {
  std::string name = c.kind == semantics::OpKind::kInsert ? "Insert"
                     : c.kind == semantics::OpKind::kRead ? "Read"
                                                          : "ReadDel";
  name += c.family == Family::kPlain    ? "Plain"
          : c.family == Family::kRobust ? "Robust"
                                        : "Blocking";
  return name + (c.batching ? "Batched" : "Unbatched");
}

std::string lifecycle_name(
    const ::testing::TestParamInfo<LifecycleCase>& info) {
  return case_name(info.param);
}

void PrintTo(const LifecycleCase& c, std::ostream* os) { *os << case_name(c); }

class OpLifecycleTest : public ::testing::TestWithParam<LifecycleCase> {};

TEST_P(OpLifecycleTest, EveryOpOpensAndClosesOnce) {
  using semantics::OpKind;
  const LifecycleCase& c = GetParam();
  ClusterConfig cfg;
  cfg.machines = 6;
  cfg.lambda = 1;
  cfg.observe = true;
  if (c.batching) {
    cfg.runtime.batch_window = 40;
    cfg.runtime.max_batch = 4;
  }
  Cluster cluster(partitioned_schema(), cfg);
  cluster.assign_basic_support();
  // Machine 5 is in no write group; machine 1 serves two partitions.
  const ProcessId remote = cluster.process(MachineId{5});
  const ProcessId member = cluster.process(MachineId{1});
  PasoRuntime& rt = cluster.runtime(MachineId{5});
  PasoRuntime& local = cluster.runtime(MachineId{1});
  const auto kv = [](std::int64_t k) {
    return Tuple{Value{k}, Value{std::string{"v"}}};
  };
  const auto key = [](std::int64_t k) {
    return criterion(Exact{Value{k}}, AnyField{});
  };
  const SearchCriterion wildcard =
      criterion(TypedAny{FieldType::kInt}, AnyField{});

  // (trace name, status) of every op in issue order, which is both the
  // history's record order and the tracer's id order.
  std::vector<std::pair<std::string, std::string>> expected;
  std::size_t callbacks = 0;
  const auto issue = [&](std::string name, std::string status) {
    expected.emplace_back(std::move(name), status);
    return status;
  };
  const auto on_insert = [&] { return [&callbacks] { ++callbacks; }; };
  const auto on_search = [&](const std::string& status) {
    return [&callbacks, status](SearchResponse result) {
      ++callbacks;
      EXPECT_EQ(result.has_value(), status == "ok") << status;
    };
  };
  const auto on_report = [&](const std::string& status) {
    return [&callbacks, status](OpReport report) {
      ++callbacks;
      EXPECT_EQ(op_status_name(report.status), status);
    };
  };

  for (std::int64_t k = 1; k <= 4; ++k) {
    issue("insert", "ok");
    ASSERT_TRUE(cluster.insert_sync(member, kv(k)));
  }
  // A deadline that has already arrived times the op out before any
  // response can: a robust op is then abandoned, a blocking one fails.
  const sim::SimTime now = cluster.simulator().now();
  switch (c.family) {
    case Family::kPlain:
      if (c.kind == OpKind::kInsert) {
        issue("insert", "ok");
        rt.insert(remote, kv(10), on_insert());
        issue("insert", "ok");
        local.insert(member, kv(11), on_insert());
      } else if (c.kind == OpKind::kRead) {
        rt.read(remote, key(1), on_search(issue("read", "ok")));
        rt.read(remote, key(99), on_search(issue("read", "fail")));
        local.read(member, wildcard, on_search(issue("read", "ok")));
      } else {
        rt.read_del(remote, key(1), on_search(issue("read_del", "ok")));
        rt.read_del(remote, key(99), on_search(issue("read_del", "fail")));
        local.read_del(member, wildcard, on_search(issue("read_del", "ok")));
      }
      break;
    case Family::kRobust:
      if (c.kind == OpKind::kInsert) {
        rt.insert_robust(remote, kv(12),
                         on_report(issue("insert_robust", "ok")));
        rt.insert_robust(remote, kv(13),
                         on_report(issue("insert_robust", "timeout")), now);
      } else if (c.kind == OpKind::kRead) {
        rt.read_robust(remote, key(1), on_report(issue("read_robust", "ok")));
        rt.read_robust(remote, key(99),
                       on_report(issue("read_robust", "fail")));
        rt.read_robust(remote, key(2),
                       on_report(issue("read_robust", "timeout")), now);
      } else {
        rt.read_del_robust(remote, key(1),
                           on_report(issue("read_del_robust", "ok")));
        rt.read_del_robust(remote, key(99),
                           on_report(issue("read_del_robust", "fail")));
        rt.read_del_robust(remote, key(2),
                           on_report(issue("read_del_robust", "timeout")),
                           now);
      }
      break;
    case Family::kBlocking: {
      const std::string name =
          c.kind == OpKind::kRead ? "read_blocking" : "read_del_blocking";
      const auto blocking = [&](const SearchCriterion& sc,
                                const std::string& status, BlockingMode mode,
                                sim::SimTime deadline) {
        if (c.kind == OpKind::kRead) {
          rt.read_blocking(remote, sc, on_search(issue(name, status)), mode,
                           deadline);
        } else {
          rt.read_del_blocking(remote, sc, on_search(issue(name, status)),
                               mode, deadline);
        }
      };
      blocking(key(1), "ok", BlockingMode::kMarker, PasoRuntime::kNoDeadline);
      blocking(key(2), "ok", BlockingMode::kPoll, PasoRuntime::kNoDeadline);
      // Satisfied by an insert issued after it.
      blocking(key(50), "ok", BlockingMode::kMarker, PasoRuntime::kNoDeadline);
      issue("insert", "ok");
      local.insert(member, kv(50), on_insert());
      blocking(key(98), "timeout", BlockingMode::kMarker, now + 500);
      blocking(key(99), "timeout", BlockingMode::kPoll, now + 500);
      break;
    }
  }
  cluster.settle();

  for (std::uint32_t m = 0; m < cfg.machines; ++m) {
    EXPECT_EQ(cluster.runtime(MachineId{m}).inflight(), 0u) << "machine " << m;
  }
  // Every op after the four set-up inserts has one callback.
  EXPECT_EQ(callbacks, expected.size() - 4);

  const auto& records = cluster.history().records();
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& [name, status] = expected[i];
    const bool abandoned =
        status == "timeout" && name.ends_with("_robust");
    EXPECT_EQ(records[i].abandoned, abandoned) << name << " #" << i;
    EXPECT_NE(records[i].return_time.has_value(), records[i].abandoned)
        << name << " #" << i << " must return or be abandoned, once";
  }

  const obs::OpTracer& tracer = cluster.tracer();
  ASSERT_EQ(tracer.trace_count(), expected.size());
  std::vector<std::vector<std::string>> issues(expected.size());
  std::vector<std::vector<std::string>> finishes(expected.size());
  for (const obs::SpanEvent& event : tracer.events()) {
    ASSERT_GE(event.trace, 1u);
    ASSERT_LE(event.trace, expected.size());
    if (event.kind == obs::SpanKind::kIssue) {
      issues[event.trace - 1].push_back(event.note);
    } else if (event.kind == obs::SpanKind::kFinish) {
      finishes[event.trace - 1].push_back(event.note);
    }
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& [name, status] = expected[i];
    EXPECT_EQ(issues[i], std::vector<std::string>{name}) << "trace " << i + 1;
    EXPECT_EQ(finishes[i], std::vector<std::string>{status})
        << name << " trace " << i + 1;
  }

  const auto check =
      semantics::check_history(cluster.history(), cluster.run_context());
  EXPECT_TRUE(check.ok()) << (check.violations.empty()
                                  ? ""
                                  : check.violations.front());
}

std::vector<LifecycleCase> lifecycle_cases() {
  std::vector<LifecycleCase> cases;
  for (const bool batching : {false, true}) {
    for (const semantics::OpKind kind :
         {semantics::OpKind::kInsert, semantics::OpKind::kRead,
          semantics::OpKind::kReadDel}) {
      for (const Family family :
           {Family::kPlain, Family::kRobust, Family::kBlocking}) {
        // There is no blocking insert.
        if (kind == semantics::OpKind::kInsert && family == Family::kBlocking) {
          continue;
        }
        cases.push_back(LifecycleCase{kind, family, batching});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, OpLifecycleTest,
                         ::testing::ValuesIn(lifecycle_cases()),
                         lifecycle_name);

}  // namespace
}  // namespace paso
