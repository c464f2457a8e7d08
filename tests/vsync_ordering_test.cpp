// Stress tests of the group layer's ordering guarantees (Section 3.2):
// total order across senders, FIFO per sender, serialization of membership
// changes with messages, and independence of distinct groups.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/bus_network.hpp"
#include "vsync/group_service.hpp"

namespace paso::vsync {
namespace {

class OrderEndpoint : public GroupEndpoint {
 public:
  GcastResult handle_gcast(const GroupName& group,
                           const Payload& message) override {
    log_[group].push_back(*std::any_cast<std::string>(&message.body));
    GcastResult result;
    result.response = std::string("ok");
    result.response_bytes = 2;
    result.processing = 1;
    return result;
  }
  StateBlob capture_state(const GroupName& group) override {
    return StateBlob{log_[group], 8 * log_[group].size() + 8};
  }
  void install_state(const GroupName& group, StateBlob blob) override {
    log_[group] = *std::any_cast<std::vector<std::string>>(&blob.state);
  }
  void erase_state(const GroupName& group) override { log_.erase(group); }
  void on_view_change(const GroupName& group, const View& view) override {
    // Record view changes inline with messages to check relative order.
    log_[group].push_back("#view" + std::to_string(view.size()));
  }

  const std::vector<std::string>& log(const GroupName& g) { return log_[g]; }

 private:
  std::map<GroupName, std::vector<std::string>> log_;
};

class VsyncOrderingTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kMachines = 6;

  VsyncOrderingTest() {
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      endpoints_.push_back(std::make_unique<OrderEndpoint>());
      service_.register_endpoint(MachineId{m}, *endpoints_.back());
    }
  }

  void join(const GroupName& g, std::uint32_t m) {
    service_.g_join(g, MachineId{m});
    simulator_.run();
  }

  sim::Simulator simulator_;
  net::BusNetwork network_{simulator_, CostModel{10, 1}, kMachines};
  GroupService service_{network_, {}};
  std::vector<std::unique_ptr<OrderEndpoint>> endpoints_;
};

TEST_F(VsyncOrderingTest, TotalOrderAcrossManySenders) {
  join("g", 0);
  join("g", 1);
  join("g", 2);
  Rng rng(5);
  // 60 messages from random senders, all issued up front (no waiting).
  for (int i = 0; i < 60; ++i) {
    const MachineId sender{static_cast<std::uint32_t>(rng.index(kMachines))};
    service_.gcast("g", sender,
                   Payload{std::string("m") + std::to_string(i), 8}, "t");
  }
  simulator_.run();
  const auto& reference = endpoints_[0]->log("g");
  EXPECT_EQ(reference.size(), 63u);  // 3 view records + 60 messages
  EXPECT_EQ(endpoints_[1]->log("g"), reference);
  EXPECT_EQ(endpoints_[2]->log("g"), reference);
}

TEST_F(VsyncOrderingTest, FifoPerSender) {
  join("g", 0);
  for (int i = 0; i < 20; ++i) {
    service_.gcast("g", MachineId{4},
                   Payload{std::string("s4-") + std::to_string(i), 8}, "t");
  }
  simulator_.run();
  int last = -1;
  for (const std::string& entry : endpoints_[0]->log("g")) {
    if (!entry.starts_with("s4-")) continue;
    const int n = std::stoi(entry.substr(3));
    EXPECT_EQ(n, last + 1);
    last = n;
  }
  EXPECT_EQ(last, 19);
}

TEST_F(VsyncOrderingTest, MembershipChangesAreOrderedWithMessages) {
  join("g", 0);
  // Interleave gcasts and a join without waiting: the join is a queued
  // operation, so both members must agree on which messages preceded it.
  service_.gcast("g", MachineId{5}, Payload{std::string("before"), 8}, "t");
  service_.g_join("g", MachineId{1});
  service_.gcast("g", MachineId{5}, Payload{std::string("after"), 8}, "t");
  simulator_.run();
  // M1's log starts from the transferred state: it must contain "before"
  // (from the donor's log) and then its own view record + "after".
  const auto& log = endpoints_[1]->log("g");
  const auto before = std::find(log.begin(), log.end(), "before");
  const auto after = std::find(log.begin(), log.end(), "after");
  ASSERT_NE(before, log.end());
  ASSERT_NE(after, log.end());
  EXPECT_LT(before - log.begin(), after - log.begin());
  // Both members end with identical logs modulo their own view prefixes:
  // compare the suffix after "before".
  const auto& log0 = endpoints_[0]->log("g");
  const auto before0 = std::find(log0.begin(), log0.end(), "before");
  ASSERT_NE(before0, log0.end());
  EXPECT_TRUE(std::equal(before, log.end(), before0, log0.end()));
}

TEST_F(VsyncOrderingTest, GroupsAreIndependent) {
  join("a", 0);
  join("b", 1);
  // A slow operation on group "a" (a long queue) must not delay group "b".
  for (int i = 0; i < 30; ++i) {
    service_.gcast("a", MachineId{3}, Payload{std::string("x"), 5000}, "t");
  }
  bool b_done = false;
  service_.gcast("b", MachineId{3}, Payload{std::string("y"), 8}, "t",
                 [&b_done](std::optional<std::any>) { b_done = true; });
  simulator_.run_while_pending([&b_done] { return b_done; });
  EXPECT_TRUE(b_done);
  // Group a is still draining.
  EXPECT_LT(endpoints_[0]->log("a").size(), 31u);
  simulator_.run();
}

TEST_F(VsyncOrderingTest, QueuedGcastFromCrashedIssuerIsDropped) {
  join("g", 0);
  // Long op at the head, then a gcast from M2, then M2 crashes before its
  // gcast dispatches.
  service_.gcast("g", MachineId{3}, Payload{std::string("slow"), 20000}, "t");
  bool responded = false;
  service_.gcast("g", MachineId{2}, Payload{std::string("doomed"), 8}, "t",
                 [&responded](std::optional<std::any>) { responded = true; });
  service_.machine_crashed(MachineId{2});
  simulator_.run();
  EXPECT_FALSE(responded);  // dead issuer gets no response
  // The doomed message must not have been delivered.
  for (const std::string& entry : endpoints_[0]->log("g")) {
    EXPECT_NE(entry, "doomed");
  }
}

TEST_F(VsyncOrderingTest, LeaveQueuedBehindGcastsAppliesAfterThem) {
  join("g", 0);
  join("g", 1);
  for (int i = 0; i < 5; ++i) {
    service_.gcast("g", MachineId{4},
                   Payload{std::string("m") + std::to_string(i), 8}, "t");
  }
  service_.g_leave("g", MachineId{1});
  simulator_.run();
  // M1 received all five messages before leaving... and then erased its
  // state; M0 retains the full log.
  int delivered = 0;
  for (const std::string& entry : endpoints_[0]->log("g")) {
    if (entry.starts_with("m")) ++delivered;
  }
  EXPECT_EQ(delivered, 5);
  EXPECT_FALSE(service_.is_member("g", MachineId{1}));
}

TEST_F(VsyncOrderingTest, RejoinAfterLeaveGetsFreshState) {
  join("g", 0);
  join("g", 1);
  service_.gcast("g", MachineId{4}, Payload{std::string("one"), 8}, "t");
  simulator_.run();
  service_.g_leave("g", MachineId{1});
  simulator_.run();
  service_.gcast("g", MachineId{4}, Payload{std::string("two"), 8}, "t");
  simulator_.run();
  join("g", 1);
  // The rejoined member's log equals the donor's (including "two", which it
  // missed while out).
  const auto& log = endpoints_[1]->log("g");
  EXPECT_NE(std::find(log.begin(), log.end(), "one"), log.end());
  EXPECT_NE(std::find(log.begin(), log.end(), "two"), log.end());
}

TEST_F(VsyncOrderingTest, ConcurrentJoinsSerializeThroughTheQueue) {
  join("g", 0);
  service_.g_join("g", MachineId{1});
  service_.g_join("g", MachineId{2});
  service_.g_join("g", MachineId{3});
  simulator_.run();
  EXPECT_EQ(service_.group_size("g"), 4u);
  // Later joiners' transferred state includes the earlier joiners' view
  // records, proving the joins were serialized.
  EXPECT_GE(endpoints_[3]->log("g").size(),
            endpoints_[1]->log("g").size());
}

}  // namespace
}  // namespace paso::vsync
