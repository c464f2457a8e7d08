// Property test: blocking producers/consumers racing under crash injection
// of non-issuing machines. Checks that (a) every produced item is consumed
// at most once (A2 through the blocking claim path), (b) consumers with
// deadlines always complete, and (c) the history passes the Section 2
// checker — across seeds.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "paso/cluster.hpp"
#include "semantics/checker.hpp"

namespace paso {
namespace {

Schema schema() {
  return Schema({ClassSpec{"item", {FieldType::kInt, FieldType::kInt}, 0, 2}});
}

class BlockingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BlockingPropertyTest, RacingBlockingConsumersNeverDuplicate) {
  Rng rng(GetParam());
  ClusterConfig cfg;
  cfg.machines = 7;
  cfg.lambda = 1;
  cfg.runtime.marker_ttl = 500 + rng.index(4000);
  cfg.runtime.poll_interval = 50 + rng.index(400);
  Cluster cluster(schema(), cfg);
  cluster.assign_basic_support();

  constexpr int kItems = 30;
  constexpr int kConsumers = 6;

  // Consumers on machines 1..6, waiting for any item; mix of marker and
  // poll modes. Machine 0 produces and is kept immune from crashes.
  std::map<std::int64_t, int> consumed;  // item id -> times consumed
  int completions = 0;
  int consumed_count = 0;
  auto consume_loop = std::make_shared<std::function<void(std::uint32_t)>>();
  *consume_loop = [&, consume_loop](std::uint32_t machine) {
    const ProcessId p = cluster.process(MachineId{machine}, 3);
    const BlockingMode mode =
        machine % 2 == 0 ? BlockingMode::kMarker : BlockingMode::kPoll;
    cluster.runtime(MachineId{machine})
        .read_del_blocking(
            p, criterion(TypedAny{FieldType::kInt}, TypedAny{FieldType::kInt}),
            [&, consume_loop, machine](SearchResponse item) {
              ++completions;
              if (item) {
                ++consumed[std::get<std::int64_t>(item->fields[0])];
                ++consumed_count;
                (*consume_loop)(machine);
              }
              // Deadline expiry: the consumer retires.
            },
            mode, cluster.simulator().now() + 60000);
  };
  for (std::uint32_t m = 1; m <= kConsumers; ++m) (*consume_loop)(m);

  // Producer drips items; a storage-only crash victim cycles in parallel.
  const ProcessId producer = cluster.process(MachineId{0});
  int produced = 0;
  auto produce = std::make_shared<std::function<void()>>();
  *produce = [&, produce] {
    if (produced == kItems) return;
    const std::int64_t id = produced++;
    cluster.runtime(MachineId{0})
        .insert(producer, {Value{id}, Value{id * 7}}, [&, produce] {
          cluster.simulator().schedule_after(20 + rng.index(300),
                                             [produce] { (*produce)(); });
        });
  };
  (*produce)();

  // Crash/recover random machines (never the producer). Consumers on a
  // crashed machine lose their blocking op (their process died) — that is
  // allowed; they simply stop consuming. An item whose claimant died after
  // the replicated removal but before the response is consumed by no one:
  // the operation stays pending, which the checker treats soundly.
  int crash_rounds = 3 + static_cast<int>(rng.index(3));
  auto do_crash = std::make_shared<std::function<void()>>();
  *do_crash = [&, do_crash] {
    if (crash_rounds-- <= 0) return;
    const std::uint32_t victim =
        1 + static_cast<std::uint32_t>(rng.index(cfg.machines - 1));
    if (cluster.is_up(MachineId{victim})) {
      cluster.crash(MachineId{victim});
      cluster.simulator().schedule_after(
          2000 + rng.index(2000), [&cluster, victim, do_crash] {
            if (!cluster.is_up(MachineId{victim})) {
              cluster.recover(MachineId{victim});
            }
            (*do_crash)();
          });
    } else {
      cluster.simulator().schedule_after(500, [do_crash] { (*do_crash)(); });
    }
  };
  cluster.simulator().schedule_after(1500, [do_crash] { (*do_crash)(); });

  // Run until all items produced and either consumed or the deadline hit.
  cluster.simulator().run_while_pending([&] {
    return produced == kItems && completions >= kConsumers &&
           cluster.simulator().now() > 70000;
  });
  cluster.settle_for(70000);

  // (a) no item consumed twice;
  for (const auto& [id, times] : consumed) {
    EXPECT_EQ(times, 1) << "item " << id << " seed " << GetParam();
  }
  // (b) consumers that survived got items or a clean deadline fail;
  EXPECT_LE(consumed_count, kItems);
  // (c) semantics.
  const auto check = semantics::check_history(cluster.history());
  EXPECT_TRUE(check.ok()) << "seed " << GetParam() << ": "
                          << (check.violations.empty()
                                  ? ""
                                  : check.violations.front());

  // Each self-rescheduling loop holds a shared_ptr to itself; clear them so
  // the cycles free (LeakSanitizer reports them otherwise).
  *consume_loop = nullptr;
  *produce = nullptr;
  *do_crash = nullptr;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockingPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace paso
