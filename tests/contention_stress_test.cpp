// Contention stress for the threaded transport's sharded stack lock: 8
// machines, one write group per machine (narrow op domains, so shard sets
// genuinely overlap and interleave), 4 client threads hammering synchronous
// inserts/reads while robust ops and a crash -> view change -> recover
// sequence run through the middle of the traffic. The assertions are about
// integrity, not speed: every op from a live machine reaches a terminal
// status, nothing wedges, and the membership maths still hold afterwards.
// The scenario runs twice: without an admission gate, and with a gate of 2
// robust ops per machine, whose refusals must come back as typed
// kOverloaded reports while the op domains stay narrow.
// Label `threaded`: this runs under ThreadSanitizer in CI, where a missing
// happens-before edge between shard sets fails deterministically.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "paso/cluster.hpp"
#include "paso/object.hpp"

namespace paso {
namespace {

constexpr std::size_t kMachines = 8;
constexpr std::size_t kClients = 4;

Schema partitioned_schema() {
  // One hash partition (= one object class, one write group) per machine:
  // op domains are {issuer} ∪ two support machines, so independent
  // machines' ops hold disjoint stack shards and actually run concurrently.
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, kMachines},
  });
}

Tuple task(std::int64_t key) { return {Value{key}, Value{std::string{"v"}}}; }

SearchCriterion by_key(std::int64_t key) {
  return criterion(Exact{Value{key}}, AnyField{});
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

struct Counts {
  std::atomic<int> reports{0};
  std::atomic<int> terminal{0};
  std::atomic<int> overloaded{0};

  std::function<void(OpReport)> reporter() {
    return [this](OpReport r) {
      reports.fetch_add(1);
      if (r.status == OpStatus::kOverloaded) overloaded.fetch_add(1);
      switch (r.status) {
        case OpStatus::kOk:
        case OpStatus::kFail:
        case OpStatus::kTimeout:
        case OpStatus::kDegraded:
        case OpStatus::kOverloaded:
          terminal.fetch_add(1);
          break;
      }
    };
  }
};

void run_contention(std::size_t admission_limit) {
  Counts robust;  // outlives the cluster: a late delivery must not UAF
  ClusterConfig config;
  config.machines = kMachines;
  config.lambda = 1;
  config.transport = TransportKind::kThreaded;
  config.record_history = false;
  // Real clock: generous op deadline so a loaded CI box times out the op,
  // not the test; short backoff keeps retries inside the test window.
  config.runtime.op_deadline = 2'000'000;
  config.runtime.retry_backoff = 20'000;
  config.runtime.admission_limit = admission_limit;
  Cluster cluster(partitioned_schema(), config);
  for (std::size_t p = 0; p < kMachines; ++p) {
    cluster.set_basic_support(
        ClassId{static_cast<std::uint32_t>(p)},
        {MachineId{static_cast<std::uint32_t>(p)},
         MachineId{static_cast<std::uint32_t>((p + 1) % kMachines)}});
  }
  cluster.assign_basic_support();  // overrides are kept; this performs joins

  // Client threads issue from machines 0/2/4/6 — machine 7 is the one that
  // crashes mid-run, so every client issuer stays up for the whole test and
  // its ops must all come back.
  std::atomic<std::uint64_t> sync_done{0};
  std::atomic<std::uint64_t> sync_ok{0};
  constexpr std::uint64_t kOpsPerClient = 30;
  std::vector<std::thread> clients;
  // If an ASSERT fires while clients are still running, join them on the
  // way out instead of std::terminate-ing on a joinable std::thread.
  struct Joiner {
    std::vector<std::thread>& threads;
    ~Joiner() {
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{clients};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const ProcessId process =
          cluster.process(MachineId{static_cast<std::uint32_t>(2 * c)});
      for (std::uint64_t i = 0; i < kOpsPerClient; ++i) {
        const std::int64_t key = static_cast<std::int64_t>(c) * 100'000 +
                                 static_cast<std::int64_t>(i);
        if (cluster.insert_sync(process, task(key))) sync_ok.fetch_add(1);
        sync_done.fetch_add(1);
        cluster.read_sync(process, by_key(key));
        sync_done.fetch_add(1);
      }
    });
  }

  // Mid-run: let traffic flow, then crash machine 7 (two write groups lose
  // a member -> g-leave + install_view race the client ops), fire a robust
  // burst into the churn, and bring the machine back (g-join + donor state
  // transfer, also mid-traffic).
  ASSERT_TRUE(wait_until([&] { return sync_done.load() >= 2 * kClients; }))
      << "clients never got going";
  cluster.crash(MachineId{7});
  int robust_issued = 0;
  cluster.transport().run_exclusive([&] {
    for (const std::uint32_t m : {0u, 3u, 5u}) {
      PasoRuntime& rt = cluster.runtime(MachineId{m});
      const ProcessId p = cluster.process(MachineId{m});
      for (int i = 0; i < 4; ++i) {
        rt.insert_robust(p, task(7'000'000 + 100 * m + i), robust.reporter());
        rt.read_robust(p, by_key(static_cast<std::int64_t>(100 * m + i)),
                       robust.reporter());
        robust_issued += 2;
      }
    }
  });
  // recover() requires failure detection to have finished expelling the
  // machine from its write groups. Under live client traffic settle() can't
  // quiesce, so poll for the exact precondition instead.
  ASSERT_TRUE(wait_until([&] {
    bool expelled = false;
    cluster.transport().run_exclusive(
        [&] { expelled = cluster.groups().groups_of(MachineId{7}).empty(); });
    return expelled;
  })) << "machine 7 never left its groups after the crash";
  std::atomic<bool> recovered{false};
  cluster.recover(MachineId{7}, [&] { recovered.store(true); });

  for (std::thread& t : clients) {
    if (t.joinable()) t.join();
  }
  ASSERT_TRUE(wait_until([&] { return recovered.load(); }))
      << "machine 7 never finished re-joining";
  ASSERT_TRUE(
      wait_until([&] { return robust.reports.load() >= robust_issued; }))
      << "a robust op from a live machine never reported: "
      << robust.reports.load() << "/" << robust_issued;
  cluster.settle();

  // Integrity: every sync op returned (the joins completing is the wedge
  // check), most succeeded, every robust op reached a typed terminal
  // status, nothing is left in flight, and λ = 1 still holds with all 8
  // machines back.
  EXPECT_EQ(sync_done.load(), 2 * kClients * kOpsPerClient);
  EXPECT_GT(sync_ok.load(), 0u);
  EXPECT_EQ(robust.reports.load(), robust_issued);
  EXPECT_EQ(robust.terminal.load(), robust.reports.load());
  if (admission_limit == 0) {
    EXPECT_EQ(robust.overloaded.load(), 0);
  } else {
    // Each of the three issuers fires 8 robust ops in one exclusive burst.
    // An insert holds its slot until its gcast returns, so after two
    // admitted inserts (and at most one local read between them) the gate
    // is shut: at least 5 of every 8 are refused.
    EXPECT_GE(robust.overloaded.load(), 3 * 5);
  }
  for (std::size_t m = 0; m < kMachines; ++m) {
    EXPECT_EQ(cluster.runtime(MachineId{static_cast<std::uint32_t>(m)})
                  .inflight(),
              0u)
        << "machine " << m << " wedged an op";
  }
  EXPECT_TRUE(cluster.is_up(MachineId{7}));
  EXPECT_TRUE(cluster.fault_tolerance_condition_holds());
}

TEST(ContentionStress, RobustOpsAndViewChangeUnderClientLoad) {
  run_contention(/*admission_limit=*/0);
}

TEST(ContentionStress, RobustOpsAndViewChangeUnderClientLoadWithAdmissionGate) {
  run_contention(/*admission_limit=*/2);
}

}  // namespace
}  // namespace paso
