// SocketTransport: fabric-level semantics with every machine a real OS
// process on a real TCP wire — delivery and model-cost parity with the
// simulated bus, self-send/down-machine semantics, bounded-bridge shed,
// garbage connections at the listener, mid-stream peer death (kill -9) and
// respawn. Label `sockets`: runs in the default tier and under ASan/UBSan.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/socket_transport.hpp"

namespace paso {
namespace {

using net::SocketTransport;
using net::SocketTransportOptions;

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(SocketTransport, DeliversAndChargesModelCost) {
  CostModel model{2.0, 0.5};
  SocketTransport transport(model, 3);
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
  // Every message physically round-tripped through machine 1's process.
  EXPECT_EQ(transport.acks_received(), 10u);
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

TEST(SocketTransport, DeliveriesKeepPerDestinationFifo) {
  SocketTransport transport(CostModel{1.0, 0.0}, 2);
  constexpr int kBurst = 500;
  std::vector<int> seen;
  seen.reserve(kBurst);
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "burst", 4,
                     [&seen, i] { seen.push_back(i); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_EQ(seen[i], i) << "delivery order broke at " << i;
  }
  transport.shutdown();
}

TEST(SocketTransport, SelfSendIsFreeAndDelivered) {
  SocketTransport transport(CostModel{1.0, 1.0}, 2);
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

TEST(SocketTransport, DownMachinesSendNothingAndReceiveNothing) {
  SocketTransport transport(CostModel{1.0, 0.0}, 3);
  std::atomic<int> delivered{0};
  transport.set_up(MachineId{2}, false);
  transport.run_exclusive([&] {
    // Down sender: dropped before transmission, nothing charged.
    transport.send(MachineId{2}, MachineId{0}, "from-dead", 4,
                   [&] { delivered.fetch_add(1); });
    // Down receiver: transmission happens (and is charged — the bus was
    // occupied), the delivery is dropped at execution time. The frame still
    // round-trips through the (alive) process of the down machine.
    transport.send(MachineId{0}, MachineId{2}, "to-dead", 4,
                   [&] { delivered.fetch_add(1); });
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(transport.messages(), 1u);
  transport.shutdown();
}

TEST(SocketTransport, BoundedBridgeShedsWithoutReordering) {
  // Crossing credit: with Topology::with_bridge_limit, crossings in flight
  // toward a segment (sent, ack not yet back) are capped; a burst far
  // faster than the wire round-trip must shed, and the survivors must stay
  // in send order.
  net::Topology topology({net::Segment{}, net::Segment{}}, {0, 1},
                         /*bridge_alpha=*/5, /*bridge_beta=*/0.1);
  topology.with_bridge_limit(4);
  SocketTransport transport(CostModel{1.0, 0.0}, 2, topology);
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
  // Shed crossings were still transmitted on the source side.
  EXPECT_EQ(transport.messages(), static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(transport.crossings(), static_cast<std::uint64_t>(kBurst));
  transport.shutdown();
}

TEST(SocketTransport, UnboundedBridgeNeverSheds) {
  net::Topology topology({net::Segment{}, net::Segment{}}, {0, 1},
                         /*bridge_alpha=*/5, /*bridge_beta=*/0.1);
  SocketTransport transport(CostModel{1.0, 0.0}, 2, topology);
  std::atomic<int> delivered{0};
  constexpr int kBurst = 1000;
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "burst", 1,
                     [&] { delivered.fetch_add(1); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), kBurst);
  EXPECT_EQ(transport.bridge_shed(), 0u);
  transport.shutdown();
}

TEST(SocketTransport, GarbageConnectionIsRejectedWhileTrafficFlows) {
  SocketTransport transport(CostModel{1.0, 0.0}, 2);

  // Point a raw socket at the broker's listener and write ascii noise — no
  // Hello, no framing. The broker must reject it (typed, counted) without
  // disturbing real traffic.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(transport.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char noise[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, noise, sizeof(noise), MSG_NOSIGNAL), 0);

  std::atomic<int> delivered{0};
  transport.run_exclusive([&] {
    for (int i = 0; i < 50; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "real", 8,
                     [&] { delivered.fetch_add(1); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), 50);
  EXPECT_TRUE(wait_until(
      [&] { return transport.rejected_connections() >= 1; }))
      << "garbage connection was never rejected";
  ::close(fd);

  // A connection that just opens and dies without a byte is also rejected
  // (by its 1s Hello deadline) — but quietly; traffic never noticed.
  transport.shutdown();
}

TEST(SocketTransport, KillNineIsDetectedAndFiresDeathHook) {
  SocketTransportOptions options;
  options.heartbeat_interval_us = 10'000;
  options.heartbeat_timeout_us = 150'000;
  SocketTransport transport(CostModel{1.0, 0.0}, 3, net::Topology{}, options);
  std::atomic<int> dead_machine{-1};
  std::string reason;
  std::mutex reason_mu;
  transport.set_peer_death_hook(
      [&](MachineId machine, const std::string& why) {
        std::lock_guard<std::mutex> lock(reason_mu);
        reason = why;
        dead_machine.store(static_cast<int>(machine.value));
      });

  const int pid = transport.child_pid(MachineId{1});
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  ASSERT_TRUE(wait_until([&] { return dead_machine.load() == 1; }))
      << "peer death was never detected";
  EXPECT_FALSE(transport.endpoint_alive(MachineId{1}));
  {
    std::lock_guard<std::mutex> lock(reason_mu);
    EXPECT_FALSE(reason.empty());
  }
  EXPECT_EQ(transport.supervisor().deaths(), 1u);

  // Sends to the dead machine are charged (the bus transmitted) but the
  // delivery dies with the process; the fabric must still quiesce — a dead
  // peer wedges nothing.
  std::atomic<int> delivered{0};
  transport.run_exclusive([&] {
    transport.send(MachineId{0}, MachineId{1}, "to-corpse", 4,
                   [&] { delivered.fetch_add(1); });
    transport.send(MachineId{0}, MachineId{2}, "to-living", 4,
                   [&] { delivered.fetch_add(1); });
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(transport.messages(), 2u);
  transport.shutdown();
}

TEST(SocketTransport, RespawnRestoresADeadEndpoint) {
  SocketTransport transport(CostModel{1.0, 0.0}, 2);
  transport.supervisor().kill_hard(1);
  ASSERT_TRUE(
      wait_until([&] { return !transport.endpoint_alive(MachineId{1}); }))
      << "kill was never detected";

  ASSERT_TRUE(transport.respawn(MachineId{1}));
  EXPECT_TRUE(transport.endpoint_alive(MachineId{1}));

  std::atomic<int> delivered{0};
  transport.run_exclusive([&] {
    for (int i = 0; i < 20; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "reborn", 4,
                     [&] { delivered.fetch_add(1); });
    }
  });
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), 20);
  transport.shutdown();
}

TEST(SocketTransport, HeartbeatsFlowOnAnIdleFabric) {
  SocketTransportOptions options;
  options.heartbeat_interval_us = 5'000;
  SocketTransport transport(CostModel{1.0, 0.0}, 2, net::Topology{}, options);
  EXPECT_TRUE(wait_until([&] { return transport.heartbeats_seen() >= 4; }))
      << "children never beaconed";
  // Heartbeats are transport plumbing, not bus traffic: nothing charged.
  transport.run_exclusive(
      [&] { EXPECT_DOUBLE_EQ(transport.ledger().total_msg_cost(), 0.0); });
  EXPECT_EQ(transport.messages(), 0u);
  transport.shutdown();
}

TEST(SocketTransport, BurstCoalescesFramesIntoFewWriteSyscalls) {
  // Syscall batching: 64 messages queued back-to-back must leave the broker
  // in far fewer writev calls than frames — frames queued while the wire
  // was busy ride a later vectored write for free. The instrumented
  // counters make the ratio a hard assertion instead of an strace eyeball.
  // The wire is held while the burst is queued: otherwise a sender
  // preempted between sends lets the writer flush each frame alone, and
  // the count measures the scheduler instead of the coalescing.
  SocketTransport transport(CostModel{1.0, 0.0}, 2);
  ASSERT_TRUE(transport.quiesce());  // handshake flushes settle first
  const std::uint64_t frames_before = transport.frames_sent();
  const std::uint64_t writes_before = transport.write_syscalls();
  constexpr int kBurst = 64;
  std::atomic<int> delivered{0};
  transport.hold_wire(true);
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "burst", 32,
                     [&] { delivered.fetch_add(1); });
    }
  });
  transport.hold_wire(false);
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(delivered.load(), kBurst);
  const std::uint64_t frames = transport.frames_sent() - frames_before;
  const std::uint64_t writes = transport.write_syscalls() - writes_before;
  EXPECT_EQ(frames, static_cast<std::uint64_t>(kBurst));
  ASSERT_GT(writes, 0u);
  // The acceptance bar: at least 2x fewer write syscalls than frames. In
  // practice the whole burst usually leaves in a handful of writev calls.
  EXPECT_LE(writes * 2, frames)
      << frames << " frames took " << writes
      << " write syscalls — batching is not coalescing";
  std::printf("coalescing: %llu frames left in %llu writev calls\n",
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(writes));
  transport.shutdown();
}

TEST(SocketTransport, IdleFabricFiresShortTimerPromptly) {
  // Deadline-driven sleeping: a 5 ms timer on an otherwise idle fabric must
  // fire in ~one scheduling hop, not after a fixed 20/50 ms poll tick. The
  // bound is generous (a loaded CI box may preempt the timer thread) but
  // sits far below the old tick quantization this guards against.
  SocketTransportOptions options;
  options.heartbeat_interval_us = 1'000'000;  // keep the wire truly idle
  SocketTransport transport(CostModel{1.0, 0.0}, 2, net::Topology{}, options);
  ASSERT_TRUE(transport.quiesce());
  std::atomic<long> fired_after_us{-1};
  const auto start = std::chrono::steady_clock::now();
  transport.executor().schedule_after(5'000, [&] {
    fired_after_us.store(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  });
  ASSERT_TRUE(wait_until([&] { return fired_after_us.load() >= 0; }))
      << "the 5 ms timer never fired";
  EXPECT_GE(fired_after_us.load(), 5'000);
  EXPECT_LT(fired_after_us.load(), 20'000)
      << "timer latency looks tick-quantized: " << fired_after_us.load()
      << " us for a 5 ms timer";
  transport.shutdown();
}

TEST(SocketTransport, ShutdownIsIdempotentAndDropsInflight) {
  SocketTransport transport(CostModel{1.0, 0.0}, 2);
  transport.run_exclusive([&] {
    for (int i = 0; i < 100; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "x", 1, [] {});
    }
  });
  transport.shutdown();
  transport.shutdown();  // no double-join, no double-reap
}

}  // namespace
}  // namespace paso
