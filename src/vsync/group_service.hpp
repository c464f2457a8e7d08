// View-synchronous group communication (the ISIS model of Section 3.2).
//
// GroupService provides exactly the guarantees the paper assumes of ISIS:
//   * named groups with dynamic membership (`g-join` / `g-leave`),
//   * reliable, totally-ordered `gcast` with per-sender FIFO,
//   * groups are stable while a gcast is in flight (no membership change
//     interleaves with a delivery),
//   * all members observe joins, leaves and messages in one common order,
//   * joins perform a donor state transfer during which no communication to
//     the group is processed (Section 4.2's initiation procedure).
//
// The implementation serializes each group's operations through a per-group
// queue, which realizes total order and stability directly. Membership
// bookkeeping and ack gathering are performed by the service itself; this
// stands in for ISIS's internal fault-tolerant protocol machinery (which the
// paper treats as a given), while every data-plane byte — fan-out
// transmissions, done-acks to the leader, the single gathered response, and
// join state transfers — crosses the simulated bus and is charged to the
// cost ledger exactly as Section 3.3 prescribes. Control-plane view
// notifications are free, matching the paper's cost accounting, which never
// charges for group maintenance.
//
// Crash faults: a crashed machine stops sending and receiving instantly; the
// failure detector notices after a configurable delay, removes the machine
// from every view, and unblocks any operation that was waiting on it.
#pragma once

#include <any>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"  // sim::SimTime/kNever aliases used in Options
#include "vsync/endpoint.hpp"
#include "vsync/view.hpp"

namespace paso::vsync {

struct GroupServiceOptions {
  /// Delay between a crash and the membership service expelling the
  /// machine from its groups (models ISIS failure detection).
  sim::SimTime failure_detection_delay = 50.0;
  /// Ack timeout after which a gcast's undelivered targets are re-sent the
  /// message (ISIS reliable delivery over a lossy link); the timeout doubles
  /// after each retransmission round. Infinity — the default — disables
  /// retransmission entirely: the fault-free bus never loses a message, and
  /// the Table 1 cost assertions rely on exact message counts. Chaos runs
  /// with drop windows must set this finite.
  sim::SimTime retransmit_timeout = sim::kNever;
};

class GroupService {
 public:
  using Options = GroupServiceOptions;

  using CompletionCallback = std::function<void(bool ok)>;
  /// Receives the gathered response body, or nullopt when the group was
  /// empty or the operation was abandoned. An empty std::any inside the
  /// optional is a member-produced "fail".
  using ResponseCallback = std::function<void(std::optional<std::any>)>;
  /// Observer invoked after every view installation (joins, leaves, and
  /// failure-detector expulsions). Runtimes use this to re-route in-flight
  /// operations after a membership change / state transfer.
  using ViewListener = std::function<void(const GroupName&, const View&)>;

  GroupService(net::Transport& network, Options options = {});

  /// Register the machine's endpoint (its memory server). Must be called
  /// before the machine joins any group.
  void register_endpoint(MachineId machine, GroupEndpoint& endpoint);

  /// g-join(g-name, done): enqueue a join. The donor state transfer happens
  /// when the join reaches the head of the group's operation queue.
  void g_join(const GroupName& group, MachineId joiner,
              CompletionCallback done = {});

  /// g-leave(g-name, done): enqueue a voluntary leave.
  void g_leave(const GroupName& group, MachineId leaver,
               CompletionCallback done = {});

  /// gcast(g-name, msg, resp): deliver `message` to every member, gather
  /// done-acks at the leader, and return one response to the issuer.
  /// `tag` labels the traffic in the cost ledger.
  void gcast(const GroupName& group, MachineId issuer, Payload message,
             std::string tag, ResponseCallback on_response = {});

  /// Read-group gcast (Section 4.3): reads entail no state change, so it
  /// suffices to deliver them to a subset rg ⊆ wg with |rg| ≤ lambda+1.
  /// Delivery goes to the members of `preferred` that are currently in the
  /// view, topped up with further view members until `max_targets`. The
  /// operation still serializes with the group's other operations, so total
  /// order with respect to updates is preserved.
  void gcast_to(const GroupName& group, MachineId issuer, Payload message,
                std::string tag, std::vector<MachineId> preferred,
                std::size_t max_targets, ResponseCallback on_response = {});

  /// Current view of a group (empty view with the latest id if no members).
  View view_of(const GroupName& group) const;
  bool is_member(const GroupName& group, MachineId machine) const;
  std::size_t group_size(const GroupName& group) const;
  /// All groups this machine currently belongs to (the `group` function of
  /// Section 3.2 restricted to one machine).
  std::vector<GroupName> groups_of(MachineId machine) const;

  /// Crash plane. `machine_crashed` takes the machine off the network
  /// immediately and schedules failure detection; `machine_recovered` brings
  /// the network interface back (the server must re-join groups itself).
  void machine_crashed(MachineId machine);
  void machine_recovered(MachineId machine);
  bool is_up(MachineId machine) const { return network_.is_up(machine); }

  net::Transport& network() { return network_; }
  const net::Transport& network() const { return network_; }
  const Options& options() const { return options_; }

  /// Subscribe to view installations (never unsubscribed; listeners must
  /// outlive the service, which holds for the per-cluster wiring).
  void add_view_listener(ViewListener listener) {
    view_listeners_.push_back(std::move(listener));
  }

  /// Number of completed gcasts (for tests).
  std::uint64_t gcasts_completed() const {
    return gcasts_completed_.load(std::memory_order_relaxed);
  }
  /// Messages re-sent by the ack-timeout retransmission machinery.
  std::uint64_t retransmits() const {
    return retransmits_.load(std::memory_order_relaxed);
  }

  void set_obs(obs::Obs o) { obs_ = o; }

  /// Pre-create a group's record. Sharded transports run executions over
  /// disjoint machine sets concurrently, and std::map insertion is not safe
  /// under concurrent finds — so every group a deployment will ever use is
  /// primed at wiring time, making groups_ structurally immutable while
  /// traffic flows. An empty primed group is behavior-neutral: view_of and
  /// the op queue treat "absent" and "empty" identically.
  void prime_group(const GroupName& group) { group_record(group); }

 private:
  struct GcastOp {
    MachineId issuer;
    Payload message;
    std::string tag;
    ResponseCallback on_response;
    // Read-group restriction; empty preferred + max SIZE_MAX = full group.
    std::vector<MachineId> preferred;
    std::size_t max_targets = SIZE_MAX;
    // In-flight bookkeeping.
    std::set<MachineId> targets;
    std::set<MachineId> pending_acks;
    std::map<MachineId, GcastResult> results;
    bool dispatched = false;
    /// Traces riding on this gcast (a batch carries one per member op),
    /// captured from the tracer context at enqueue; dispatch/serve/response
    /// sends re-establish them so later-event cost lands on the right ops.
    std::vector<obs::TraceId> traces;
  };
  struct JoinOp {
    MachineId joiner;
    CompletionCallback done;
    bool transfer_in_flight = false;
    MachineId donor;
    sim::SimTime started_at = -1;
    /// Set after a delta install fails mid-join: the retry (and any donor
    /// failover) must ship the full blob, not renegotiate a delta against
    /// state the aborted install may have touched.
    bool force_full = false;
    /// Bumped every time dispatch_join ships (or re-ships) a blob. Arrival
    /// handlers and retransmit timers from a superseded transfer — delta
    /// fallback, donor failover — carry a stale seq and become no-ops, so a
    /// late duplicate can never install an outdated blob.
    std::uint64_t transfer_seq = 0;
  };
  struct LeaveOp {
    MachineId leaver;
    CompletionCallback done;
  };
  struct Op {
    enum class Kind { kGcast, kJoin, kLeave } kind;
    std::uint64_t id;
    GcastOp gcast;
    JoinOp join;
    LeaveOp leave;
  };
  struct Group {
    View view;
    std::deque<std::unique_ptr<Op>> queue;
    bool busy = false;
  };

  Group& group_record(const GroupName& name);
  void pump(const GroupName& name);
  void dispatch_gcast(const GroupName& name, Op& op);
  void dispatch_join(const GroupName& name, Op& op);
  void dispatch_leave(const GroupName& name, Op& op);
  void member_deliver(const GroupName& name, std::uint64_t op_id,
                      MachineId member);
  void send_ack(const GroupName& name, std::uint64_t op_id, MachineId member);
  void schedule_retransmit(const GroupName& name, std::uint64_t op_id,
                           sim::SimTime delay);
  void member_acked(const GroupName& name, std::uint64_t op_id,
                    MachineId member);
  void send_transfer(const GroupName& name, std::uint64_t op_id,
                     std::uint64_t seq, MachineId donor, Cost copy_cost,
                     bool is_delta, std::shared_ptr<StateBlob> blob,
                     sim::SimTime retry_delay);
  void maybe_complete_gcast(const GroupName& name, Op& op);
  void complete_active(const GroupName& name);
  void finish_join(const GroupName& name, Op& op);
  void install_view(const GroupName& name, std::vector<MachineId> members);
  void on_failure_detected(MachineId machine);
  Op* active_op(const GroupName& name, std::uint64_t op_id);

  net::Transport& network_;
  Options options_;
  obs::Obs obs_;
  std::map<GroupName, Group> groups_;
  std::vector<GroupEndpoint*> endpoints_;
  std::vector<ViewListener> view_listeners_;
  // Scalar counters are atomics: ids are drawn from executions whose
  // domains may be disjoint (and thus run concurrently on sharded
  // transports); the stats are read by tests without the stack lock.
  std::atomic<std::uint64_t> next_op_id_{1};
  std::atomic<std::uint64_t> next_view_id_{1};
  std::atomic<std::uint64_t> gcasts_completed_{0};
  std::atomic<std::uint64_t> retransmits_{0};
};

}  // namespace paso::vsync
