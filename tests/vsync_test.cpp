// Tests for the view-synchronous group layer: membership, totally ordered
// gcast with gathered response, state transfer on join, crash handling.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "net/bus_network.hpp"
#include "vsync/group_service.hpp"

namespace paso::vsync {
namespace {

/// Endpoint that logs delivered messages per group; its group state is the
/// log itself, so state transfer is directly observable.
class TestEndpoint : public GroupEndpoint {
 public:
  explicit TestEndpoint(MachineId self) : self_(self) {}

  GcastResult handle_gcast(const GroupName& group,
                           const Payload& message) override {
    const auto* body = std::any_cast<std::string>(&message.body);
    EXPECT_NE(body, nullptr);
    log_[group].push_back(*body);
    GcastResult result;
    result.response = std::string("ack:") + std::to_string(self_.value);
    result.response_bytes = 6;
    result.processing = processing_;
    return result;
  }

  StateBlob capture_state(const GroupName& group) override {
    StateBlob blob;
    blob.state = log_[group];
    blob.bytes = state_bytes_;
    return blob;
  }

  void install_state(const GroupName& group, StateBlob blob) override {
    const auto* state = std::any_cast<std::vector<std::string>>(&blob.state);
    ASSERT_NE(state, nullptr);
    log_[group] = *state;
    ++installs_;
  }

  void erase_state(const GroupName& group) override { log_.erase(group); }

  void on_view_change(const GroupName& group, const View& view) override {
    views_[group].push_back(view);
  }

  const std::vector<std::string>& log(const GroupName& g) { return log_[g]; }
  bool has_state(const GroupName& g) const { return log_.contains(g); }
  const std::vector<View>& views(const GroupName& g) { return views_[g]; }
  int installs() const { return installs_; }
  void set_processing(Cost c) { processing_ = c; }
  void set_state_bytes(std::size_t b) { state_bytes_ = b; }

 private:
  MachineId self_;
  Cost processing_ = 1.0;
  std::size_t state_bytes_ = 16;
  int installs_ = 0;
  std::map<GroupName, std::vector<std::string>> log_;
  std::map<GroupName, std::vector<View>> views_;
};

class GroupServiceTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kMachines = 5;

  GroupServiceTest() {
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      endpoints_.push_back(std::make_unique<TestEndpoint>(MachineId{m}));
      service_.register_endpoint(MachineId{m}, *endpoints_.back());
    }
  }

  void join(const GroupName& g, std::uint32_t m) {
    bool ok = false;
    service_.g_join(g, MachineId{m}, [&ok](bool r) { ok = r; });
    simulator_.run();
    ASSERT_TRUE(ok) << "join of M" << m << " to " << g << " failed";
  }

  std::optional<std::any> gcast_sync(const GroupName& g, std::uint32_t issuer,
                                     const std::string& body,
                                     std::size_t bytes = 16) {
    std::optional<std::optional<std::any>> out;
    service_.gcast(g, MachineId{issuer}, Payload{body, bytes}, "test",
                   [&out](std::optional<std::any> r) { out = std::move(r); });
    simulator_.run();
    return out.value_or(std::nullopt);
  }

  sim::Simulator simulator_;
  net::BusNetwork network_{simulator_, CostModel{10.0, 1.0}, kMachines};
  GroupService service_{network_, GroupServiceOptions{50.0}};
  std::vector<std::unique_ptr<TestEndpoint>> endpoints_;
};

TEST_F(GroupServiceTest, FirstJoinCreatesSingletonView) {
  join("g", 2);
  const View view = service_.view_of("g");
  EXPECT_EQ(view.size(), 1u);
  EXPECT_TRUE(view.contains(MachineId{2}));
  ASSERT_EQ(endpoints_[2]->views("g").size(), 1u);
}

TEST_F(GroupServiceTest, JoinTransfersDonorState) {
  join("g", 0);
  gcast_sync("g", 3, "hello");
  EXPECT_EQ(endpoints_[0]->log("g"),
            (std::vector<std::string>{"hello"}));
  join("g", 1);
  // The joiner received the donor's log via state transfer.
  EXPECT_EQ(endpoints_[1]->log("g"), (std::vector<std::string>{"hello"}));
  EXPECT_EQ(endpoints_[1]->installs(), 1);
}

TEST_F(GroupServiceTest, GcastReachesAllMembersInSameOrder) {
  join("g", 0);
  join("g", 1);
  join("g", 2);
  gcast_sync("g", 4, "a");
  gcast_sync("g", 4, "b");
  gcast_sync("g", 3, "c");
  const std::vector<std::string> expected{"a", "b", "c"};
  EXPECT_EQ(endpoints_[0]->log("g"), expected);
  EXPECT_EQ(endpoints_[1]->log("g"), expected);
  EXPECT_EQ(endpoints_[2]->log("g"), expected);
}

TEST_F(GroupServiceTest, GcastReturnsLeaderResponse) {
  join("g", 1);
  join("g", 2);
  const auto response = gcast_sync("g", 4, "ping");
  ASSERT_TRUE(response.has_value());
  const auto* text = std::any_cast<std::string>(&*response);
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(*text, "ack:1");  // leader = lowest id member
}

TEST_F(GroupServiceTest, GcastToEmptyGroupFails) {
  const auto response = gcast_sync("nothing", 0, "ping");
  EXPECT_FALSE(response.has_value());
}

TEST_F(GroupServiceTest, LeaveErasesStateAndShrinksView) {
  join("g", 0);
  join("g", 1);
  gcast_sync("g", 2, "x");
  bool ok = false;
  service_.g_leave("g", MachineId{0}, [&ok](bool r) { ok = r; });
  simulator_.run();
  EXPECT_TRUE(ok);
  EXPECT_FALSE(endpoints_[0]->has_state("g"));
  EXPECT_FALSE(service_.is_member("g", MachineId{0}));
  EXPECT_EQ(service_.group_size("g"), 1u);
}

TEST_F(GroupServiceTest, LeaveOfNonMemberFails) {
  join("g", 0);
  bool ok = true;
  service_.g_leave("g", MachineId{3}, [&ok](bool r) { ok = r; });
  simulator_.run();
  EXPECT_FALSE(ok);
}

TEST_F(GroupServiceTest, DoubleJoinFails) {
  join("g", 0);
  bool ok = true;
  service_.g_join("g", MachineId{0}, [&ok](bool r) { ok = r; });
  simulator_.run();
  EXPECT_FALSE(ok);
}

TEST_F(GroupServiceTest, CrashDetectionExpelsFromAllGroups) {
  join("g1", 0);
  join("g1", 1);
  join("g2", 1);
  service_.machine_crashed(MachineId{1});
  simulator_.run();
  EXPECT_FALSE(service_.is_member("g1", MachineId{1}));
  EXPECT_FALSE(service_.is_member("g2", MachineId{1}));
  EXPECT_TRUE(service_.is_member("g1", MachineId{0}));
}

TEST_F(GroupServiceTest, GcastCompletesDespiteMemberCrash) {
  join("g", 0);
  join("g", 1);
  join("g", 2);
  // Crash a member right away, then gcast before detection: the operation
  // must still complete once the failure detector prunes the dead member.
  service_.machine_crashed(MachineId{2});
  std::optional<std::optional<std::any>> out;
  service_.gcast("g", MachineId{4}, Payload{std::string("x"), 8}, "test",
                 [&out](std::optional<std::any> r) { out = std::move(r); });
  simulator_.run();
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->has_value());
}

TEST_F(GroupServiceTest, LeaderCrashStillYieldsResponse) {
  join("g", 0);
  join("g", 1);
  service_.machine_crashed(MachineId{0});  // the leader
  std::optional<std::optional<std::any>> out;
  service_.gcast("g", MachineId{4}, Payload{std::string("x"), 8}, "test",
                 [&out](std::optional<std::any> r) { out = std::move(r); });
  simulator_.run();
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ(*std::any_cast<std::string>(&**out), "ack:1");
}

TEST_F(GroupServiceTest, RecoveredMachineStartsOutsideGroups) {
  join("g", 0);
  join("g", 1);
  service_.machine_crashed(MachineId{0});
  simulator_.run();  // detection completes
  service_.machine_recovered(MachineId{0});
  EXPECT_FALSE(service_.is_member("g", MachineId{0}));
  EXPECT_TRUE(service_.is_up(MachineId{0}));
}

TEST_F(GroupServiceTest, RecoveryBeforeDetectionIsRejected) {
  join("g", 0);
  join("g", 1);
  service_.machine_crashed(MachineId{0});
  // No simulator run: the failure detector has not fired yet.
  EXPECT_THROW(service_.machine_recovered(MachineId{0}), InvariantViolation);
}

TEST_F(GroupServiceTest, SubsetGcastOnlyTouchesTargets) {
  join("g", 0);
  join("g", 1);
  join("g", 2);
  join("g", 3);
  std::optional<std::optional<std::any>> out;
  service_.gcast_to("g", MachineId{4}, Payload{std::string("r"), 8}, "read",
                    {MachineId{1}, MachineId{3}}, 2,
                    [&out](std::optional<std::any> r) { out = std::move(r); });
  simulator_.run();
  ASSERT_TRUE(out.has_value() && out->has_value());
  EXPECT_TRUE(endpoints_[0]->log("g").empty());
  EXPECT_TRUE(endpoints_[2]->log("g").empty());
  EXPECT_EQ(endpoints_[1]->log("g"), (std::vector<std::string>{"r"}));
  EXPECT_EQ(endpoints_[3]->log("g"), (std::vector<std::string>{"r"}));
}

TEST_F(GroupServiceTest, SubsetGcastTopsUpFromView) {
  join("g", 0);
  join("g", 2);
  // Preferred member 4 is not in the group; the read still goes to 2 members.
  std::optional<std::optional<std::any>> out;
  service_.gcast_to("g", MachineId{3}, Payload{std::string("r"), 8}, "read",
                    {MachineId{4}}, 2,
                    [&out](std::optional<std::any> r) { out = std::move(r); });
  simulator_.run();
  ASSERT_TRUE(out.has_value() && out->has_value());
  EXPECT_EQ(endpoints_[0]->log("g").size(), 1u);
  EXPECT_EQ(endpoints_[2]->log("g").size(), 1u);
}

TEST_F(GroupServiceTest, DonorCrashRestartsTransferWithNewDonor) {
  join("g", 0);
  join("g", 1);
  gcast_sync("g", 3, "payload");
  // Make the transfer long enough that the donor (leader M0) can die mid
  // stream: detection delay is 50, transfer cost is alpha + beta*bytes.
  endpoints_[0]->set_state_bytes(100000);
  endpoints_[1]->set_state_bytes(64);
  bool ok = false;
  service_.g_join("g", MachineId{2}, [&ok](bool r) { ok = r; });
  // Let the join dispatch (donor chosen = M0), then crash the donor.
  simulator_.run_until(simulator_.now() + 1);
  service_.machine_crashed(MachineId{0});
  simulator_.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(service_.is_member("g", MachineId{2}));
  EXPECT_EQ(endpoints_[2]->log("g"), (std::vector<std::string>{"payload"}));
}

TEST_F(GroupServiceTest, OperationsQueuePerGroup) {
  join("g", 0);
  // Enqueue a gcast and a join back to back; the join must observe the gcast
  // already applied (its state transfer includes it).
  std::optional<std::optional<std::any>> out;
  service_.gcast("g", MachineId{3}, Payload{std::string("first"), 8}, "test",
                 [&out](std::optional<std::any> r) { out = std::move(r); });
  bool joined = false;
  service_.g_join("g", MachineId{1}, [&joined](bool r) { joined = r; });
  simulator_.run();
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(joined);
  EXPECT_EQ(endpoints_[1]->log("g"), (std::vector<std::string>{"first"}));
}

TEST_F(GroupServiceTest, ViewChangesNotifyAllMembersInOrder) {
  join("g", 0);
  join("g", 1);
  join("g", 2);
  const auto& views = endpoints_[0]->views("g");
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].size(), 1u);
  EXPECT_EQ(views[1].size(), 2u);
  EXPECT_EQ(views[2].size(), 3u);
  EXPECT_LT(views[0].id, views[1].id);
  EXPECT_LT(views[1].id, views[2].id);
}

TEST_F(GroupServiceTest, GcastChargesLedgerPerCostModel) {
  join("g", 1);
  join("g", 2);
  const auto before = network_.ledger().snapshot();
  gcast_sync("g", 4, "msg", 32);
  const CostTriple cost = network_.ledger().since(before);
  // Fan-out: 2 * (10 + 32); acks: only the non-leader member's ack crosses
  // the bus (the leader's own done-ack is a free self-send); response:
  // 10 + 6. One alpha below the paper's formula, which charges |g| acks.
  EXPECT_DOUBLE_EQ(cost.msg_cost, 2 * 42.0 + 1 * 10.0 + 16.0);
  // Each member did 1 unit of processing work.
  EXPECT_DOUBLE_EQ(cost.work, 2.0);
  EXPECT_DOUBLE_EQ(cost.time, 1.0);
}

}  // namespace
}  // namespace paso::vsync
