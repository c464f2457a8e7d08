// ThreadedTransport: fabric-level delivery/cost semantics, and an
// 8-machine cluster smoke test under genuinely concurrent client load.
// Runs in the fast tier and (label `threaded`) under ThreadSanitizer in CI.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/threaded_transport.hpp"
#include "paso/cluster.hpp"

namespace paso {
namespace {

using net::ThreadedTransport;

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

Tuple task(std::int64_t key) {
  return {Value{key}, Value{std::string(16, 'x')}};
}

SearchCriterion by_key(std::int64_t key) {
  return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
}

TEST(ThreadedTransport, DeliversAndChargesModelCost) {
  CostModel model{2.0, 0.5};
  ThreadedTransport transport(model, 4);
  std::atomic<int> delivered{0};
  transport.run_exclusive([&] {
    for (int i = 0; i < 10; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "ping", 8,
                     [&] { delivered.fetch_add(1); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), 10);
  EXPECT_EQ(transport.messages(), 10u);
  EXPECT_EQ(transport.bytes_sent(), 80u);
  // Same charge as the simulated bus: 10 * (alpha + beta*8).
  transport.run_exclusive([&] {
    EXPECT_DOUBLE_EQ(transport.ledger().total_msg_cost(),
                     10 * (2.0 + 0.5 * 8));
    const auto& per_tag = transport.ledger().per_tag();
    ASSERT_TRUE(per_tag.contains("ping"));
    EXPECT_EQ(per_tag.at("ping").messages, 10u);
  });
  transport.shutdown();
}

TEST(ThreadedTransport, SelfSendIsFreeAndDelivered) {
  ThreadedTransport transport(CostModel{1.0, 1.0}, 2);
  std::atomic<bool> delivered{false};
  transport.run_exclusive([&] {
    transport.send(MachineId{1}, MachineId{1}, "local", 64,
                   [&] { delivered.store(true); });
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_TRUE(delivered.load());
  EXPECT_EQ(transport.messages(), 0u);
  transport.run_exclusive(
      [&] { EXPECT_DOUBLE_EQ(transport.ledger().total_msg_cost(), 0.0); });
  transport.shutdown();
}

TEST(ThreadedTransport, DownMachinesSendNothingAndReceiveNothing) {
  ThreadedTransport transport(CostModel{1.0, 0.0}, 3);
  std::atomic<int> delivered{0};
  transport.set_up(MachineId{2}, false);
  transport.run_exclusive([&] {
    // Down sender: dropped before transmission, nothing charged.
    transport.send(MachineId{2}, MachineId{0}, "from-dead", 4,
                   [&] { delivered.fetch_add(1); });
    // Down receiver: transmission happens (and is charged — the bus was
    // occupied), the delivery is dropped at execution time.
    transport.send(MachineId{0}, MachineId{2}, "to-dead", 4,
                   [&] { delivered.fetch_add(1); });
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(transport.messages(), 1u);
  transport.shutdown();
}

TEST(ThreadedTransport, RingOverflowSpillsWithoutLossOrReorder) {
  // A 1-slot-ring transport under a large burst: almost every push spills
  // to the overflow lane; per-(segment, machine) FIFO must survive.
  net::ThreadedTransportOptions options;
  options.ring_capacity = 2;  // 1 usable slot
  ThreadedTransport transport(CostModel{1.0, 0.0}, 2, net::Topology{},
                              options);
  constexpr int kBurst = 5000;
  std::vector<int> seen;
  seen.reserve(kBurst);
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "burst", 1,
                     [&seen, i] { seen.push_back(i); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_EQ(seen[i], i) << "delivery order broke at " << i;
  }
  EXPECT_GT(transport.overflowed(), 0u) << "test never exercised the spill";
  transport.shutdown();
}

TEST(ThreadedTransport, BoundedBridgeShedsCrossingBurstsFifo) {
  // The overflow lane doubles as this transport's bridge ingress buffer:
  // with Topology::with_bridge_limit a crossing that finds the lane at
  // capacity is shed (counted, charged src+bridge, never delivered). The
  // survivors must still arrive in send order — shedding thins the stream,
  // it must never reorder it.
  net::Topology topology({net::Segment{}, net::Segment{}}, {0, 1},
                         /*bridge_alpha=*/5, /*bridge_beta=*/0.1);
  topology.with_bridge_limit(4);
  net::ThreadedTransportOptions options;
  options.ring_capacity = 2;  // 1 usable slot: crossings spill immediately
  ThreadedTransport transport(CostModel{1.0, 0.0}, 2, topology, options);
  constexpr int kBurst = 2000;
  std::vector<int> seen;
  seen.reserve(kBurst);
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "burst", 1,
                     [&seen, i] { seen.push_back(i); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_GT(transport.bridge_shed(), 0u) << "cap never bound";
  EXPECT_EQ(seen.size() + transport.bridge_shed(),
            static_cast<std::size_t>(kBurst));
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_GT(seen[i], seen[i - 1]) << "survivor order broke at " << i;
  }
  // Shed crossings were still transmitted on the source side: every one of
  // the kBurst sends was charged and counted as a crossing.
  EXPECT_EQ(transport.messages(), static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(transport.crossings(), static_cast<std::uint64_t>(kBurst));
  transport.shutdown();
}

TEST(ThreadedTransport, BridgeCapIgnoresIntraSegmentTraffic) {
  // The cap governs the bridge, not the local bus: same-segment sends ride
  // the overflow lane without ever being shed, whatever its depth.
  net::Topology topology({net::Segment{}, net::Segment{}}, {0, 0, 1},
                         /*bridge_alpha=*/5, /*bridge_beta=*/0.1);
  topology.with_bridge_limit(1);
  net::ThreadedTransportOptions options;
  options.ring_capacity = 2;
  ThreadedTransport transport(CostModel{1.0, 0.0}, 3, topology, options);
  std::atomic<int> delivered{0};
  constexpr int kBurst = 1000;
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "local", 1,
                     [&] { delivered.fetch_add(1); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), kBurst);
  EXPECT_EQ(transport.bridge_shed(), 0u);
  transport.shutdown();
}

TEST(ThreadedTransport, UnboundedBridgeNeverSheds) {
  // Default topology config: the legacy unbounded lane, bit-for-bit.
  net::Topology topology({net::Segment{}, net::Segment{}}, {0, 1},
                         /*bridge_alpha=*/5, /*bridge_beta=*/0.1);
  net::ThreadedTransportOptions options;
  options.ring_capacity = 2;
  ThreadedTransport transport(CostModel{1.0, 0.0}, 2, topology, options);
  std::atomic<int> delivered{0};
  constexpr int kBurst = 2000;
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "burst", 1,
                     [&] { delivered.fetch_add(1); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), kBurst);
  EXPECT_EQ(transport.bridge_shed(), 0u);
  EXPECT_GT(transport.overflowed(), 0u) << "test never exercised the lane";
  transport.shutdown();
}

TEST(ThreadedTransport, ShutdownIsIdempotentAndDropsInflight) {
  ThreadedTransport transport(CostModel{1.0, 0.0}, 2);
  transport.run_exclusive([&] {
    for (int i = 0; i < 100; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "x", 1, [] {});
    }
  });
  transport.shutdown();
  transport.shutdown();  // no double-join
}

// ---------------------------------------------------------------------------
// Cluster smoke: 8 machines, concurrent clients.

TEST(ThreadedCluster, EightMachinesUnderConcurrentClientLoad) {
  ClusterConfig config;
  config.machines = 8;
  config.lambda = 1;
  config.transport = TransportKind::kThreaded;
  Cluster cluster(task_schema(), config);
  cluster.assign_basic_support();

  // 4 client threads, each machine-affine, inserting then reading back its
  // own keyspace slice through the synchronous wrappers (which serialize
  // through the transport's stack lock).
  constexpr int kClients = 4;
  constexpr std::int64_t kOpsPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const ProcessId process =
          cluster.process(MachineId{static_cast<std::uint32_t>(2 * c)});
      for (std::int64_t i = 0; i < kOpsPerClient; ++i) {
        const std::int64_t key = c * 1000 + i;
        if (!cluster.insert_sync(process, task(key))) {
          failures.fetch_add(1);
          continue;
        }
        const auto found =
            cluster.read_sync(process, by_key(key));
        if (!found.has_value()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  cluster.settle();
  // Every insert/read crossed the bus: the model-cost ledger must have
  // metered real traffic even though no virtual clock ever ticked.
  cluster.transport().run_exclusive([&] {
    EXPECT_GT(cluster.ledger().total_msg_cost(), 0.0);
    EXPECT_GT(cluster.ledger().total_work(), 0.0);
  });
  EXPECT_GT(cluster.real_clock_transport().messages(), 0u);
}

TEST(ThreadedCluster, SettleForSleepsWallMicroseconds) {
  ClusterConfig config;
  config.machines = 2;
  config.transport = TransportKind::kThreaded;
  Cluster cluster(task_schema(), config);
  const auto start = std::chrono::steady_clock::now();
  cluster.settle_for(20'000);  // 20ms in wall clock
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            15);
}

}  // namespace
}  // namespace paso
