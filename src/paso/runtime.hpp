// Per-machine PASO runtime: the client side of the system.
//
// Implements the macro expansions of Appendix A — insert, read, read&del —
// on behalf of the compute processes of one machine, plus the blocking
// variants Section 4.3 discusses (busy-wait polling, read markers, and the
// hybrid marker-with-expiry scheme). The runtime consults the write groups
// through GroupService, takes the local fast path for classes whose write
// group this machine belongs to, restricts remote reads to read groups, and
// feeds every observation to the machine's ReplicationPolicy.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "paso/batcher.hpp"
#include "paso/classes.hpp"
#include "paso/memory_server.hpp"
#include "paso/messages.hpp"
#include "paso/replication_policy.hpp"
#include "semantics/history.hpp"
#include "vsync/group_service.hpp"

namespace paso {

/// Where a remote read goes (Section 4.3): any read group rg(C) ⊆ wg(C) of
/// at most lambda + 1 members satisfies the fault-tolerance condition.
enum class ReadRoute {
  /// The whole write group.
  kWriteGroup,
  /// The basic support B(C).
  kBasicSupport,
  /// lambda + 1 members of the current view, the window advanced on every
  /// read. Spreads query work (the response-time concern the paper defers
  /// to load balancing [13]).
  kRotating,
  /// Sticky two-choice rotation: keep the current window and probe one
  /// rotating alternative per read, moving only when the alternative's
  /// most-loaded replica carries measurably less load than the current
  /// one — the balanced-allocations idea of [13]. Load is the per-replica
  /// work counter in the cost ledger, standing in for the load reports
  /// servers would piggyback on responses; blind per-read rotation keeps
  /// hammering replicas that are hot from *other* classes, sticky
  /// two-choice steers around them.
  kSticky,
};

struct RuntimeConfig {
  /// Fault-tolerance degree: write groups must keep more than lambda - k
  /// members; read groups have at most lambda + 1 (Sections 3.1, 4.3).
  std::size_t lambda = 1;
  ReadRoute read_route = ReadRoute::kBasicSupport;
  /// Busy-wait retry interval for blocking operations in polling mode.
  sim::SimTime poll_interval = 200;
  /// Marker lifetime in the hybrid blocking scheme; markers are re-placed
  /// (which re-probes the class) when they expire.
  sim::SimTime marker_ttl = 5000;

  // --- gcast operation batching ---------------------------------------------

  /// Coalescing window for same-route store/mem-read/remove gcasts: ops
  /// issued within this much simulated time share one gcast (one 2*alpha).
  /// 0 — the default — disables batching; every op is its own gcast, the
  /// exact pre-batching behavior.
  sim::SimTime batch_window = 0;
  /// A route's pending ops are dispatched as soon as this many accumulate,
  /// without waiting out the window.
  std::size_t max_batch = 16;

  // --- robust-operation machinery (crash-recovery hardening) ---------------

  /// Default deadline for the *_robust entry points, measured from issue;
  /// kNever = wait forever. When the deadline passes, the op fails over to
  /// an explicit kTimeout report — it never blocks its caller forever.
  sim::SimTime op_deadline = sim::kNever;
  /// Delay before a robust op re-issues its gcast when no response arrived
  /// (e.g. the response was orphaned by a crash or lost in a drop window).
  /// kNever disables retries; the deadline alone still applies. The delay
  /// doubles after every retry, and retries continue until the deadline.
  sim::SimTime retry_backoff = sim::kNever;
  /// When true, a blocking op that hits its deadline is recorded in the
  /// history as *abandoned* (maximal pessimism) instead of as a clean fail.
  /// Required under chaos: at the deadline a probe's response — or a claim's
  /// removal — may still be in flight, so "fail" would overclaim. Off by
  /// default to preserve the fault-free accounting exactly.
  bool pessimistic_timeouts = false;

  // --- admission control (overload survival) --------------------------------

  /// Client-edge admission gate for the robust entry points (SEDA-style
  /// per-stage admission: bound the stage's concurrency and refuse the
  /// excess explicitly instead of letting a queue grow). A robust op issued
  /// while this many robust ops are already running on this machine fails
  /// fast with OpStatus::kOverloaded; nothing reaches the network. 0 — the
  /// default — means no gate. The plain primitives are never gated.
  std::size_t admission_limit = 0;
};

/// Outcome of a robust operation.
enum class OpStatus {
  kOk,        ///< completed; `object` holds the result for read/read&del
  kFail,      ///< servers answered definitively: no matching object
  kTimeout,     ///< deadline passed with no definitive answer (explicit error)
  kDegraded,    ///< refused: write group at/below the λ−k boundary (§4.1)
  kOverloaded,  ///< refused at the client edge by admission control
};

const char* op_status_name(OpStatus status);

struct OpReport {
  OpStatus status = OpStatus::kFail;
  SearchResponse object;      ///< engaged iff status == kOk on a search
  std::size_t attempts = 0;   ///< gcast attempts issued (1 = no retries)
};

enum class BlockingMode {
  kPoll,    ///< busy-wait, cycling among the classes (Section 4.3)
  kMarker,  ///< leave read markers; hybrid expiry per RuntimeConfig
};

class PasoRuntime final : public GroupControl {
 public:
  using InsertCallback = std::function<void()>;
  using SearchCallback = std::function<void(SearchResponse)>;
  using ReportCallback = std::function<void(OpReport)>;
  /// Provider of B(C), the basic support of a class (used as read group).
  using BasicSupportProvider =
      std::function<std::vector<MachineId>(ClassId)>;

  static constexpr sim::SimTime kNoDeadline =
      std::numeric_limits<sim::SimTime>::infinity();

  PasoRuntime(MachineId self, const Schema& schema,
              vsync::GroupService& groups, MemoryServer& server,
              RuntimeConfig config,
              semantics::HistoryRecorder* history = nullptr);

  // --- PASO primitives (Appendix A) ----------------------------------------

  /// insert(o): gcast store(o) to wg(obj-clss(o)). Returns the identity
  /// assigned to the object; `done` fires when the (empty) response arrives.
  ObjectId insert(ProcessId process, Tuple fields, InsertCallback done = {});

  /// read(sc): walk sc-list(sc); local mem-read where this machine is in
  /// the write group, read-group gcast otherwise. Non-blocking: `cb`
  /// receives fail (nullopt) when every class came up empty.
  void read(ProcessId process, SearchCriterion sc, SearchCallback cb);

  /// read&del(sc): gcast remove(sc, C) along sc-list(sc); no local shortcut
  /// because every write-group member must apply the removal.
  void read_del(ProcessId process, SearchCriterion sc, SearchCallback cb);

  // --- robust variants (crash-recovery hardening) ---------------------------
  //
  // Same semantics as the primitives above, plus: a per-operation deadline
  // (absolute sim time; kNoDeadline = now + RuntimeConfig::op_deadline),
  // retry-with-backoff when the gcast is orphaned by a view change or lost
  // in a chaos window, and an explicit kDegraded refusal when the target
  // write group no longer satisfies |wg(C)| > λ−k. The report callback
  // always fires exactly once (unless this machine crashes first): robust
  // operations never block forever. Retries are idempotent end to end — an
  // insert re-sends the *same* identity and the servers dedup it; a
  // read&del re-uses one removal token, so replicas replay their original
  // decision instead of deleting a second object.

  ObjectId insert_robust(ProcessId process, Tuple fields,
                         ReportCallback report = {},
                         sim::SimTime deadline = kNoDeadline);
  void read_robust(ProcessId process, SearchCriterion sc,
                   ReportCallback report,
                   sim::SimTime deadline = kNoDeadline);
  void read_del_robust(ProcessId process, SearchCriterion sc,
                       ReportCallback report,
                       sim::SimTime deadline = kNoDeadline);

  /// λ−k degradation test (§4.1): true when the class's write group has at
  /// most λ−k operational members, k being the number of machines currently
  /// down — i.e. the fault-tolerance condition no longer holds for C and
  /// further updates risk data loss. Robust ops are refused while degraded.
  bool degraded(ClassId cls) const;

  // --- blocking variants (Section 4.3) --------------------------------------

  void read_blocking(ProcessId process, SearchCriterion sc, SearchCallback cb,
                     BlockingMode mode = BlockingMode::kMarker,
                     sim::SimTime deadline = kNoDeadline);
  void read_del_blocking(ProcessId process, SearchCriterion sc,
                         SearchCallback cb,
                         BlockingMode mode = BlockingMode::kMarker,
                         sim::SimTime deadline = kNoDeadline);

  // --- GroupControl ---------------------------------------------------------

  void request_join(ClassId cls) override;
  /// request_join with a completion signal (used by the recovery path to
  /// detect the end of the initialization phase).
  void request_join(ClassId cls, std::function<void(bool)> done);
  void request_leave(ClassId cls) override;
  bool is_member(ClassId cls) const override;
  bool is_basic_support(ClassId cls) const override;
  std::size_t live_count(ClassId cls) const override;

  // --- wiring ---------------------------------------------------------------

  void set_policy(std::unique_ptr<ReplicationPolicy> policy);
  ReplicationPolicy* policy() { return policy_.get(); }
  /// Install the observability handle (forwarded to this runtime's batcher;
  /// the cluster installs it on the server/groups/network separately).
  void set_obs(obs::Obs o) {
    obs_ = o;
    batcher_.set_obs(o);
  }
  void set_basic_support_provider(BasicSupportProvider provider) {
    basic_support_ = std::move(provider);
  }

  /// Delivery point for marker notifications addressed to this machine.
  void on_marker_notification(std::uint64_t marker_id,
                              const PasoObject& object);

  /// View-change hook (wired to GroupService::add_view_listener by the
  /// cluster): a membership change — in particular a completed state
  /// transfer after recovery — re-routes this runtime's in-flight robust
  /// operations by resetting their backoff and retrying promptly.
  void on_group_view_change(const GroupName& group, const vsync::View& view);

  /// Crash: all client-side state of in-flight operations dies with the
  /// machine. Insert sequence counters survive — they model the epoch
  /// component of object identities, which must stay unique across restarts
  /// (A2 requires at-most-one insert per identity).
  void on_machine_crash();

  MachineId self() const { return self_; }
  const Schema& schema() const { return schema_; }
  vsync::GroupService& groups() { return groups_; }
  MemoryServer& server() { return server_; }
  const RuntimeConfig& config() const { return config_; }
  /// Per-machine knob overrides (benches/tests mixing rotation modes across
  /// machines in one cluster). Change knobs between operations only.
  RuntimeConfig& mutable_config() { return config_; }
  /// Reads of `cls` this runtime has issued (local or remote) — the
  /// observed reader population placement-aware replication consumes.
  std::uint64_t reads_issued(ClassId cls) const {
    const auto it = reads_issued_.find(cls.value);
    return it == reads_issued_.end() ? 0 : it->second;
  }
  /// The batching layer store/mem-read/remove gcasts route through (markers
  /// go to `groups()` directly).
  GcastBatcher& batcher() { return batcher_; }

  /// Outstanding operations (non-blocking in flight + active blocking).
  std::size_t inflight() const { return inflight_; }

  /// Robustness counters (for tests and the chaos bench).
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t degraded_rejections() const { return degraded_rejections_; }

  /// Admission-gate counters (see RuntimeConfig::admission_limit).
  std::uint64_t admission_rejections() const { return admission_rejections_; }
  std::size_t admitted_robust() const { return admitted_; }

 private:
  /// One issued operation, from issue to return: its history record, its
  /// trace and when it was issued.
  struct IssuedOp {
    std::uint64_t history_id = 0;
    obs::TraceId trace = 0;
    sim::SimTime issued_at = 0;
  };

  struct BlockingOp {
    std::uint64_t id = 0;
    ProcessId process;
    semantics::OpKind kind = semantics::OpKind::kRead;
    SearchCriterion criterion;
    SearchCallback cb;
    BlockingMode mode = BlockingMode::kMarker;
    sim::SimTime deadline = kNoDeadline;
    std::vector<ClassId> classes;
    IssuedOp issued;
    bool claiming = false;  ///< read&del claim gcast in flight
  };

  struct RobustOp {
    std::uint64_t id = 0;
    ProcessId process;
    semantics::OpKind kind = semantics::OpKind::kRead;
    std::vector<ClassId> classes;
    std::optional<StoreMsg> store;  ///< insert: re-sent verbatim on retry
    SearchCriterion criterion;      ///< read / read&del
    std::uint64_t remove_token = 0;  ///< read&del: one token across retries
    sim::SimTime deadline = kNoDeadline;
    sim::SimTime backoff = kNoDeadline;
    std::size_t attempts = 0;
    IssuedOp issued;
    ReportCallback report;
    sim::EventId timer{};
    bool timer_armed = false;
    bool admitted = false;   ///< counts against admission_limit until finish
  };

  /// A plain read or read&del: open it, walk sc-list(sc), close it.
  void search(ProcessId process, semantics::OpKind kind, SearchCriterion sc,
              SearchCallback cb);
  /// Walk `classes` from `index` on, one class at a time, until one yields
  /// an object; `cb` receives it, or fail (nullopt) when every class came up
  /// empty. A read takes the local fast path where this machine holds the
  /// class and gcasts mem-read to the read group otherwise; a read&del
  /// gcasts remove(sc, C, token) to the whole write group.
  void search_chain(ProcessId process, semantics::OpKind kind,
                    SearchCriterion sc, std::vector<ClassId> classes,
                    std::size_t index, std::uint64_t token, SearchCallback cb,
                    obs::TraceId trace);
  /// The preferred targets of a remote read of `cls` under
  /// RuntimeConfig::read_route; empty = the whole write group.
  std::vector<MachineId> read_group_of(ClassId cls, std::size_t window);
  GroupName group_of(ClassId cls) const { return schema_.group_name(cls); }
  /// Sticky two-choice: the rotation offset to read from, given the
  /// current view members (sorted) and the read-group window size.
  std::size_t sticky_start(ClassId cls,
                           const std::vector<MachineId>& members,
                           std::size_t window);

  void start_blocking(ProcessId process, SearchCriterion sc, SearchCallback cb,
                      semantics::OpKind kind, BlockingMode mode,
                      sim::SimTime deadline);
  void blocking_poll(std::uint64_t op_id);
  void place_markers(std::uint64_t op_id);
  void cancel_markers(const BlockingOp& op);
  void blocking_candidate(std::uint64_t op_id, const PasoObject& object);
  void finish_blocking(std::uint64_t op_id, SearchResponse result,
                       bool timed_out = false);

  /// A robust read or read&del.
  void search_robust(ProcessId process, semantics::OpKind kind,
                     SearchCriterion sc, ReportCallback report,
                     sim::SimTime deadline);
  void start_robust(ProcessId process, semantics::OpKind kind, RobustOp op,
                    sim::SimTime deadline);
  void robust_attempt(std::uint64_t op_id);
  void robust_arm_timer(std::uint64_t op_id);
  void robust_timer_fired(std::uint64_t op_id);
  void robust_finish(std::uint64_t op_id, OpStatus status,
                     SearchResponse object);
  std::uint64_t next_remove_token();
  /// A fresh identity for `process`'s next insert into `cls`.
  ObjectId next_object_id(ProcessId process, ClassId cls);
  sim::SimTime resolve_deadline(sim::SimTime deadline) const;

  /// Open an op: issue its history record (the insert of `object`, or a
  /// `kind` search by `sc`), begin its trace `name` and count it in flight.
  /// Trace and metric work is a no-op with observability disabled.
  IssuedOp open_op(const char* name, ProcessId process,
                   const PasoObject& object);
  IssuedOp open_op(const char* name, ProcessId process,
                   semantics::OpKind kind, const SearchCriterion& sc);
  IssuedOp open_op(const char* name, std::uint64_t history_id);
  /// Close an op with `status`: record its return with `result` in the
  /// history — or mark the record abandoned — finish its trace and take it
  /// out of flight.
  void close_op(const IssuedOp& op, OpStatus status, SearchResponse result,
                bool abandon = false);

  MachineId self_;
  const Schema& schema_;
  vsync::GroupService& groups_;
  MemoryServer& server_;
  RuntimeConfig config_;
  obs::Obs obs_;
  GcastBatcher batcher_;
  semantics::HistoryRecorder* history_;
  std::unique_ptr<ReplicationPolicy> policy_;
  BasicSupportProvider basic_support_;

  /// Insert counters per process, indexed by class (see next_object_id).
  std::unordered_map<ProcessId, std::vector<std::uint64_t>> insert_seq_;
  std::unordered_map<std::uint32_t, std::size_t> read_rotation_;
  std::unordered_map<std::uint32_t, std::size_t> sticky_anchor_;
  std::unordered_map<std::uint32_t, std::uint64_t> reads_issued_;
  std::set<std::uint32_t> join_pending_;
  std::set<std::uint32_t> leave_pending_;
  std::map<std::uint64_t, BlockingOp> blocking_;
  std::uint64_t next_blocking_id_ = 1;
  std::map<std::uint64_t, RobustOp> robust_;
  std::uint64_t next_robust_id_ = 1;
  std::uint64_t next_remove_seq_ = 1;
  std::size_t inflight_ = 0;
  std::uint64_t crash_epoch_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t degraded_rejections_ = 0;
  /// Admission gate (RuntimeConfig::admission_limit): robust ops currently
  /// admitted, and refusals so far.
  std::size_t admitted_ = 0;
  std::uint64_t admission_rejections_ = 0;
};

}  // namespace paso
