// The shed charge, held to one formula on every transport.
//
// A crossing that a bounded bridge sheds has used its source bus and its
// bridge hops but never the destination bus, so it costs src + bridge; a
// delivered crossing costs src + bridge + dst. The same crossing burst runs
// on the simulated bus, the threaded transport and the socket transport.
// Each sheds a different number of messages (the sim by virtual-time
// occupancy, the real clocks by whatever their fabric holds at that
// instant). Each ledger must equal the formula over the counts that transport
// reports, and the alpha/beta metric split must add up the same way.
#include <gtest/gtest.h>

#include <cstdint>

#include "net/bus_network.hpp"
#include "net/socket_transport.hpp"
#include "net/threaded_transport.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace paso {
namespace {

constexpr std::size_t kBytes = 8;
constexpr int kBurst = 2000;
// Segment 0: 10 + 1*8 = 18; bridge: 5 + 0.25*8 = 7; segment 1: 20 + 0.5*8
// = 24. Every value is exact in a double, so the sums below are too.
constexpr Cost kSrcAlpha = 10, kSrcBeta = 8;
constexpr Cost kBridgeAlpha = 5, kBridgeBeta = 2;
constexpr Cost kDstAlpha = 20, kDstBeta = 4;

net::Topology bounded_topology() {
  net::Topology topology(
      {net::Segment{CostModel{10, 1}}, net::Segment{CostModel{20, 0.5}}},
      {0, 1}, /*bridge_alpha=*/5, /*bridge_beta=*/0.25);
  topology.with_bridge_limit(2);
  return topology;
}

/// Sends the burst machine 0 -> machine 1 (one crossing each) in one go.
void send_burst(net::Transport& transport) {
  transport.run_exclusive([&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(MachineId{0}, MachineId{1}, "burst", kBytes, [] {});
    }
  });
}

/// The ledger and the alpha/beta split must both follow from the delivered
/// and shed counts alone.
void expect_charged(const net::CostLedger& ledger,
                    obs::Observability& observability, std::uint64_t sent,
                    std::uint64_t shed) {
  ASSERT_EQ(sent, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(shed, 0u) << "the bridge cap never bound";
  EXPECT_LT(shed, sent) << "nothing crossed";
  const Cost delivered = static_cast<Cost>(sent - shed);
  const Cost dropped = static_cast<Cost>(shed);
  const Cost alpha = delivered * (kSrcAlpha + kBridgeAlpha + kDstAlpha) +
                     dropped * (kSrcAlpha + kBridgeAlpha);
  const Cost beta = delivered * (kSrcBeta + kBridgeBeta + kDstBeta) +
                    dropped * (kSrcBeta + kBridgeBeta);
  EXPECT_EQ(ledger.total_msg_cost(), alpha + beta);
  const net::TrafficStats& burst = ledger.per_tag().at("burst");
  EXPECT_EQ(burst.messages, sent);
  EXPECT_EQ(burst.bytes, sent * kBytes);
  EXPECT_EQ(burst.cost, alpha + beta);
  EXPECT_EQ(observability.metrics.gauge("net.cost.alpha").value, alpha);
  EXPECT_EQ(observability.metrics.gauge("net.cost.beta").value, beta);
  EXPECT_EQ(observability.metrics.counter("net.bridge.shed").value, shed);
  EXPECT_EQ(observability.metrics.counter("net.crossings").value, sent);
}

TEST(TransportCharge, SimBusChargesShedCrossingsSourcePlusBridge) {
  sim::Simulator simulator;
  net::BusNetwork bus(simulator, CostModel{}, 2, bounded_topology());
  obs::Observability observability;
  bus.set_obs(observability.handle());
  send_burst(bus);
  simulator.run();
  expect_charged(bus.ledger(), observability, bus.crossings(),
                 bus.bridge_shed());
}

TEST(TransportCharge, ThreadedChargesShedCrossingsSourcePlusBridge) {
  net::ThreadedTransportOptions options;
  options.ring_capacity = 2;  // 1 usable slot: crossings spill at once
  net::ThreadedTransport transport(CostModel{}, 2, bounded_topology(),
                                   options);
  obs::Observability observability;
  transport.set_obs(observability.handle());
  send_burst(transport);
  ASSERT_TRUE(transport.quiesce());
  expect_charged(transport.ledger(), observability, transport.crossings(),
                 transport.bridge_shed());
  EXPECT_EQ(transport.messages(), transport.crossings());
  transport.shutdown();
}

TEST(TransportCharge, SocketChargesShedCrossingsSourcePlusBridge) {
  net::SocketTransport transport(CostModel{}, 2, bounded_topology());
  obs::Observability observability;
  transport.set_obs(observability.handle());
  send_burst(transport);
  ASSERT_TRUE(transport.quiesce());
  expect_charged(transport.ledger(), observability, transport.crossings(),
                 transport.bridge_shed());
  EXPECT_EQ(transport.messages(), transport.crossings());
  transport.shutdown();
}

}  // namespace
}  // namespace paso
