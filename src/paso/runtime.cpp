#include "paso/runtime.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace paso {

namespace {

/// Sticky two-choice hysteresis: a probed read-group window wins only when
/// its load is below current * (1 - kStickyMargin), so equal-load windows
/// never flap.
constexpr double kStickyMargin = 0.05;
/// A robust op's retry backoff is multiplied by this after every retry.
constexpr double kRetryBackoffFactor = 2.0;

/// Extract the SearchResponse a server produced from the gathered gcast
/// response. A missing or empty body is "fail".
SearchResponse unwrap_search(const std::optional<std::any>& response) {
  if (!response) return std::nullopt;
  if (const auto* r = std::any_cast<SearchResponse>(&*response)) return *r;
  return std::nullopt;
}

}  // namespace

const char* op_status_name(OpStatus status) {
  switch (status) {
    case OpStatus::kOk:
      return "ok";
    case OpStatus::kFail:
      return "fail";
    case OpStatus::kTimeout:
      return "timeout";
    case OpStatus::kDegraded:
      return "degraded";
    case OpStatus::kOverloaded:
      return "overloaded";
  }
  return "?";
}

PasoRuntime::PasoRuntime(MachineId self, const Schema& schema,
                         vsync::GroupService& groups, MemoryServer& server,
                         RuntimeConfig config,
                         semantics::HistoryRecorder* history)
    : self_(self),
      schema_(schema),
      groups_(groups),
      server_(server),
      config_(config),
      batcher_(groups, self, config.batch_window, config.max_batch),
      history_(history) {}

void PasoRuntime::set_policy(std::unique_ptr<ReplicationPolicy> policy) {
  policy_ = std::move(policy);
}

// ---------------------------------------------------------------------------
// the op lifecycle: every insert, read and read&del — plain, robust or
// blocking — opens once at issue and closes once at return

PasoRuntime::IssuedOp PasoRuntime::open_op(const char* name,
                                           ProcessId process,
                                           const PasoObject& object) {
  return open_op(name, history_ != nullptr
                           ? history_->insert_issued(
                                 process, groups_.network().now(), object)
                           : 0);
}

PasoRuntime::IssuedOp PasoRuntime::open_op(const char* name,
                                           ProcessId process,
                                           semantics::OpKind kind,
                                           const SearchCriterion& sc) {
  return open_op(name, history_ != nullptr
                           ? history_->search_issued(
                                 process, groups_.network().now(), kind, sc)
                           : 0);
}

PasoRuntime::IssuedOp PasoRuntime::open_op(const char* name,
                                           std::uint64_t history_id) {
  IssuedOp op{history_id, 0, groups_.network().now()};
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter(std::string("runtime.ops.") + name, self_).inc();
    obs_.metrics->gauge("runtime.inflight", self_)
        .set(static_cast<double>(inflight_ + 1));
  }
  if (obs_.tracer != nullptr) {
    op.trace = obs_.tracer->begin(name, self_, op.issued_at);
  }
  ++inflight_;
  return op;
}

void PasoRuntime::close_op(const IssuedOp& op, OpStatus status,
                           SearchResponse result, bool abandon) {
  const sim::SimTime now = groups_.network().now();
  if (status == OpStatus::kTimeout) ++timeouts_;
  if (history_ != nullptr) {
    if (abandon) {
      history_->op_abandoned(op.history_id, now);
    } else {
      history_->op_returned(op.history_id, now, std::move(result));
    }
  }
  if (obs_.metrics != nullptr) {
    obs_.metrics
        ->histogram("runtime.latency", self_,
                    {10, 25, 50, 100, 250, 500, 1000, 2500, 5000})
        .observe(now - op.issued_at);
    obs_.metrics->gauge("runtime.inflight", self_)
        .set(static_cast<double>(inflight_ > 0 ? inflight_ - 1 : 0));
  }
  if (obs_.tracer != nullptr) {
    if (status == OpStatus::kTimeout) {
      obs_.tracer->span(op.trace, obs::SpanKind::kDeadline, self_, now);
    }
    obs_.tracer->finish(op.trace, op_status_name(status), self_, now);
  }
  if (inflight_ > 0) --inflight_;
}

// ---------------------------------------------------------------------------
// insert

ObjectId PasoRuntime::insert(ProcessId process, Tuple fields,
                             InsertCallback done) {
  PASO_REQUIRE(groups_.is_up(self_), "insert issued from a crashed machine");
  const auto cls = schema_.classify(fields);
  PASO_REQUIRE(cls.has_value(), "tuple matches no declared object class");
  const GroupName group = group_of(*cls);
  // The fault-tolerance condition guarantees a live replica at all times; an
  // insert into an empty write group would silently lose the object.
  PASO_REQUIRE(groups_.group_size(group) > 0,
               "insert into empty write group: fault-tolerance condition "
               "violated for " + group);

  PasoObject object;
  object.id = next_object_id(process, *cls);
  object.fields = std::move(fields);
  const ObjectId id = object.id;

  const IssuedOp op = open_op("insert", process, object);
  obs::OpTracer::Scope scope(obs_.tracer, op.trace);
  batcher_.gcast(group, StoreMsg{*cls, std::move(object)},
                 [this, op, done = std::move(done)](std::optional<std::any>) {
                   close_op(op, OpStatus::kOk, std::nullopt);
                   if (done) done();
                 });
  return id;
}

// ---------------------------------------------------------------------------
// read and read&del

void PasoRuntime::read(ProcessId process, SearchCriterion sc,
                       SearchCallback cb) {
  PASO_REQUIRE(groups_.is_up(self_), "read issued from a crashed machine");
  search(process, semantics::OpKind::kRead, std::move(sc), std::move(cb));
}

void PasoRuntime::read_del(ProcessId process, SearchCriterion sc,
                           SearchCallback cb) {
  PASO_REQUIRE(groups_.is_up(self_),
               "read&del issued from a crashed machine");
  search(process, semantics::OpKind::kReadDel, std::move(sc), std::move(cb));
}

void PasoRuntime::search(ProcessId process, semantics::OpKind kind,
                         SearchCriterion sc, SearchCallback cb) {
  std::vector<ClassId> classes = schema_.candidate_classes(sc);
  const IssuedOp op = open_op(
      kind == semantics::OpKind::kRead ? "read" : "read_del", process, kind,
      sc);
  search_chain(process, kind, std::move(sc), std::move(classes), 0,
               /*token=*/0,
               [this, op, cb = std::move(cb)](SearchResponse result) {
                 close_op(op, result ? OpStatus::kOk : OpStatus::kFail,
                          result);
                 if (cb) cb(std::move(result));
               },
               op.trace);
}

void PasoRuntime::search_chain(ProcessId process, semantics::OpKind kind,
                               SearchCriterion sc,
                               std::vector<ClassId> classes,
                               std::size_t index, std::uint64_t token,
                               SearchCallback cb, obs::TraceId trace) {
  for (; index < classes.size(); ++index) {
    const ClassId cls = classes[index];
    const GroupName group = group_of(cls);
    std::optional<BatchableOp> msg;
    std::vector<MachineId> preferred;
    std::size_t max_targets = SIZE_MAX;
    if (kind == semantics::OpKind::kReadDel) {
      // Every write-group member must apply the removal, so there is no
      // local shortcut and no read-group restriction (Section 4.3).
      msg = RemoveMsg{cls, sc, token};
    } else {
      // Reader-population signal for placement-aware replication: every
      // class this read consults counts as reader interest from this
      // machine.
      ++reads_issued_[cls.value];
      if (groups_.is_member(group, self_) && server_.supports(cls)) {
        // Local fast path (Section 4.3): msg-cost 0, Q(l) work on this
        // server.
        SearchResponse result = server_.local_find(cls, sc);
        if (policy_) policy_->on_local_read(cls, /*served_locally=*/true, 0);
        if (result) {
          cb(std::move(result));
          return;
        }
        continue;
      }
      // Remote path: gcast mem-read(sc, C) to the read group.
      if (config_.read_route != ReadRoute::kWriteGroup) {
        max_targets = config_.lambda + 1;
      }
      preferred = read_group_of(cls, max_targets);
      if (policy_) {
        policy_->on_local_read(
            cls, /*served_locally=*/false,
            std::min(max_targets, groups_.group_size(group)));
      }
      msg = MemReadMsg{cls, sc};
    }
    obs::OpTracer::Scope scope(obs_.tracer, trace);
    batcher_.gcast_to(
        group, std::move(*msg), std::move(preferred), max_targets,
        [this, process, kind, sc = std::move(sc), classes = std::move(classes),
         index, token, trace,
         cb = std::move(cb)](std::optional<std::any> response) mutable {
          SearchResponse result = unwrap_search(response);
          if (result) {
            cb(std::move(result));
            return;
          }
          search_chain(process, kind, std::move(sc), std::move(classes),
                       index + 1, token, std::move(cb), trace);
        });
    return;
  }
  cb(std::nullopt);
}

std::vector<MachineId> PasoRuntime::read_group_of(ClassId cls,
                                                  std::size_t window) {
  switch (config_.read_route) {
    case ReadRoute::kWriteGroup:
      return {};
    case ReadRoute::kBasicSupport:
      return basic_support_ ? basic_support_(cls) : std::vector<MachineId>{};
    case ReadRoute::kRotating:
    case ReadRoute::kSticky:
      break;
  }
  // Load-balancing routes: take `window` members of the current write group
  // starting at a per-class offset — blindly advanced every read, or sticky
  // two-choice driven by per-replica load counters.
  const std::vector<MachineId> members =
      groups_.view_of(group_of(cls)).members;
  std::vector<MachineId> preferred;
  if (members.empty()) return preferred;
  const std::size_t start = config_.read_route == ReadRoute::kSticky
                                ? sticky_start(cls, members, window)
                                : read_rotation_[cls.value]++ % members.size();
  for (std::size_t i = 0; i < members.size() && preferred.size() < window;
       ++i) {
    preferred.push_back(members[(start + i) % members.size()]);
  }
  return preferred;
}

std::size_t PasoRuntime::sticky_start(ClassId cls,
                                      const std::vector<MachineId>& members,
                                      std::size_t window) {
  // Two-choice with stickiness: compare the anchored window against one
  // rotating probe window per read and move the anchor only when the probe
  // is measurably lighter. Load of a window is its most-loaded replica (the
  // max is what tail latency sees), read from the ledger's per-machine work
  // counters — the signal real servers would piggyback on responses.
  const net::CostLedger& ledger = groups_.network().ledger();
  auto window_load = [&](std::size_t start) {
    Cost load = 0;
    const std::size_t span = std::min(window, members.size());
    for (std::size_t i = 0; i < span; ++i) {
      load = std::max(load,
                      ledger.work_of(members[(start + i) % members.size()]));
    }
    return load;
  };
  std::size_t& anchor = sticky_anchor_[cls.value];
  anchor %= members.size();  // the view may have shrunk since the last read
  const std::size_t probe = read_rotation_[cls.value]++ % members.size();
  if (probe != anchor &&
      window_load(probe) <
          window_load(anchor) * (1.0 - kStickyMargin)) {
    anchor = probe;
  }
  return anchor;
}

// ---------------------------------------------------------------------------
// blocking variants

void PasoRuntime::read_blocking(ProcessId process, SearchCriterion sc,
                                SearchCallback cb, BlockingMode mode,
                                sim::SimTime deadline) {
  start_blocking(process, std::move(sc), std::move(cb),
                 semantics::OpKind::kRead, mode, deadline);
}

void PasoRuntime::read_del_blocking(ProcessId process, SearchCriterion sc,
                                    SearchCallback cb, BlockingMode mode,
                                    sim::SimTime deadline) {
  start_blocking(process, std::move(sc), std::move(cb),
                 semantics::OpKind::kReadDel, mode, deadline);
}

void PasoRuntime::start_blocking(ProcessId process, SearchCriterion sc,
                                 SearchCallback cb, semantics::OpKind kind,
                                 BlockingMode mode, sim::SimTime deadline) {
  PASO_REQUIRE(groups_.is_up(self_),
               "blocking operation issued from a crashed machine");
  BlockingOp op;
  op.id = next_blocking_id_++;
  op.process = process;
  op.kind = kind;
  op.criterion = std::move(sc);
  op.cb = std::move(cb);
  op.mode = mode;
  op.deadline = deadline;
  op.classes = schema_.candidate_classes(op.criterion);
  op.issued = open_op(kind == semantics::OpKind::kRead ? "read_blocking"
                                                       : "read_del_blocking",
                      process, kind, op.criterion);
  const std::uint64_t op_id = op.id;
  blocking_.emplace(op_id, std::move(op));
  if (mode == BlockingMode::kPoll) {
    blocking_poll(op_id);
  } else {
    place_markers(op_id);
  }
}

void PasoRuntime::blocking_poll(std::uint64_t op_id) {
  auto it = blocking_.find(op_id);
  if (it == blocking_.end()) return;
  BlockingOp& op = it->second;
  const sim::SimTime now = groups_.network().executor().now();
  if (now >= op.deadline) {
    finish_blocking(op_id, std::nullopt, /*timed_out=*/true);
    return;
  }
  search_chain(op.process, op.kind, op.criterion, op.classes, 0, /*token=*/0,
               [this, op_id](SearchResponse result) {
                 if (!blocking_.contains(op_id)) return;
                 if (result) {
                   finish_blocking(op_id, std::move(result));
                   return;
                 }
                 groups_.network().executor().schedule_after(
                     config_.poll_interval,
                     [this, op_id] { blocking_poll(op_id); });
               },
               op.issued.trace);
}

void PasoRuntime::place_markers(std::uint64_t op_id) {
  auto it = blocking_.find(op_id);
  if (it == blocking_.end()) return;
  BlockingOp& op = it->second;
  const sim::SimTime now = groups_.network().executor().now();
  if (now >= op.deadline) {
    finish_blocking(op_id, std::nullopt, /*timed_out=*/true);
    return;
  }
  const sim::SimTime expires = now + config_.marker_ttl;
  obs::OpTracer::Scope scope(obs_.tracer, op.issued.trace);
  for (const ClassId cls : op.classes) {
    PlaceMarkerMsg msg{cls, op.criterion, op_id, self_, expires};
    const std::size_t bytes = msg.wire_size();
    // The marker's installation response doubles as an immediate probe, so
    // an object already present is found without waiting for an insert.
    groups_.gcast(group_of(cls), self_,
                  vsync::Payload{ServerMessage{std::move(msg)}, bytes},
                  "place-marker",
                  [this, op_id](std::optional<std::any> response) {
                    SearchResponse result = unwrap_search(response);
                    if (result) blocking_candidate(op_id, *result);
                  });
  }
  // Hybrid scheme: markers expire; re-place (and thereby re-probe) while the
  // operation is still waiting.
  groups_.network().executor().schedule_after(
      config_.marker_ttl, [this, op_id] { place_markers(op_id); });
}

void PasoRuntime::blocking_candidate(std::uint64_t op_id,
                                     const PasoObject& object) {
  auto it = blocking_.find(op_id);
  if (it == blocking_.end()) return;  // already finished
  BlockingOp& op = it->second;
  if (op.kind == semantics::OpKind::kRead) {
    finish_blocking(op_id, object);
    return;
  }
  // Blocking read&del: the notification is only a hint — another process may
  // win the race. Claim through a regular (totally ordered) remove; on
  // failure, keep waiting for the next notification. The paper left marker-
  // based read&del as future work; this claim/retry realizes it on top of
  // the ordered remove.
  if (op.claiming) return;
  op.claiming = true;
  search_chain(op.process, op.kind, op.criterion, op.classes, 0, /*token=*/0,
               [this, op_id](SearchResponse result) {
                 auto again = blocking_.find(op_id);
                 if (again == blocking_.end()) return;
                 if (result) {
                   finish_blocking(op_id, std::move(result));
                 } else {
                   again->second.claiming = false;
                 }
               },
               op.issued.trace);
}

void PasoRuntime::cancel_markers(const BlockingOp& op) {
  obs::OpTracer::Scope scope(obs_.tracer, op.issued.trace);
  for (const ClassId cls : op.classes) {
    CancelMarkerMsg msg{cls, op.id, self_};
    const std::size_t bytes = msg.wire_size();
    groups_.gcast(group_of(cls), self_,
                  vsync::Payload{ServerMessage{std::move(msg)}, bytes},
                  "cancel-marker");
  }
}

void PasoRuntime::finish_blocking(std::uint64_t op_id, SearchResponse result,
                                  bool timed_out) {
  auto it = blocking_.find(op_id);
  if (it == blocking_.end()) return;
  BlockingOp op = std::move(it->second);
  blocking_.erase(it);
  if (op.mode == BlockingMode::kMarker) cancel_markers(op);
  const OpStatus status = result      ? OpStatus::kOk
                          : timed_out ? OpStatus::kTimeout
                                      : OpStatus::kFail;
  // A deadline expiry is not a definitive "fail": a probe's response — or,
  // worse, a claim's replicated removal — may still be in flight. Recording
  // a clean fail there would overclaim, so under `pessimistic_timeouts`
  // (and always when a claim is outstanding, where the removal may land
  // after this return) the op is abandoned instead: the record stays
  // pending and the checker applies crash-grade pessimism.
  close_op(op.issued, status, result,
           /*abandon=*/status == OpStatus::kTimeout &&
               (config_.pessimistic_timeouts || op.claiming));
  if (op.cb) op.cb(std::move(result));
}

void PasoRuntime::on_marker_notification(std::uint64_t marker_id,
                                         const PasoObject& object) {
  blocking_candidate(marker_id, object);
}

// ---------------------------------------------------------------------------
// robust operations (crash-recovery hardening)

bool PasoRuntime::degraded(ClassId cls) const {
  // k = number of machines currently down; the fault-tolerance condition of
  // §4.1 requires |wg(C)| > λ−k operational members. (A machine still in
  // its initialization phase also counts faulty per §3.1, but it is not in
  // any view yet, so the operational count below already excludes it.)
  std::size_t down = 0;
  const std::size_t n = groups_.network().machine_count();
  for (std::size_t m = 0; m < n; ++m) {
    if (!groups_.is_up(MachineId{static_cast<std::uint32_t>(m)})) ++down;
  }
  std::size_t operational = 0;
  for (const MachineId m : groups_.view_of(group_of(cls)).members) {
    if (groups_.is_up(m)) ++operational;
  }
  return operational + down <= config_.lambda;
}

sim::SimTime PasoRuntime::resolve_deadline(sim::SimTime deadline) const {
  if (deadline != kNoDeadline) return deadline;
  if (config_.op_deadline == sim::kNever) return kNoDeadline;
  return groups_.network().executor().now() + config_.op_deadline;
}

std::uint64_t PasoRuntime::next_remove_token() {
  // Unique system-wide: machine id in the high bits, a local sequence that
  // survives crashes (like insert_seq_) below. Token 0 stays reserved for
  // "untracked".
  return ((static_cast<std::uint64_t>(self_.value) + 1) << 40) |
         next_remove_seq_++;
}

ObjectId PasoRuntime::next_object_id(ProcessId process, ClassId cls) {
  // The class in the high bits, a per-(process, class) counter below: the
  // identity is unique system-wide, and one creator's identities in one
  // class are consecutive, so a server's dedup table holds them as one run.
  // The counters survive crashes, like next_remove_seq_.
  PASO_REQUIRE(cls.value < (1u << (64 - kSequenceClassShift)) - 1,
               "class id does not fit an insert sequence");
  std::vector<std::uint64_t>& counters = insert_seq_[process];
  if (counters.size() <= cls.value) counters.resize(cls.value + 1, 0);
  std::uint64_t& counter = counters[cls.value];
  PASO_REQUIRE(counter < (std::uint64_t{1} << kSequenceClassShift),
               "insert sequence counter overflow");
  return ObjectId{process, ((cls.value + std::uint64_t{1})
                            << kSequenceClassShift) | counter++};
}

ObjectId PasoRuntime::insert_robust(ProcessId process, Tuple fields,
                                    ReportCallback report,
                                    sim::SimTime deadline) {
  PASO_REQUIRE(groups_.is_up(self_), "insert issued from a crashed machine");
  const auto cls = schema_.classify(fields);
  PASO_REQUIRE(cls.has_value(), "tuple matches no declared object class");

  // The identity is allocated exactly once; every retry re-sends the same
  // StoreMsg, so A2 (at-most-one insert per identity) holds by construction
  // and the servers' insert dedup makes the retries harmless.
  PasoObject object;
  object.id = next_object_id(process, *cls);
  object.fields = std::move(fields);

  RobustOp op;
  op.classes = {*cls};
  op.report = std::move(report);
  op.issued = open_op("insert_robust", process, object);
  op.store = StoreMsg{*cls, std::move(object)};
  const ObjectId id = op.store->object.id;
  start_robust(process, semantics::OpKind::kInsert, std::move(op), deadline);
  return id;
}

void PasoRuntime::read_robust(ProcessId process, SearchCriterion sc,
                              ReportCallback report, sim::SimTime deadline) {
  PASO_REQUIRE(groups_.is_up(self_), "read issued from a crashed machine");
  search_robust(process, semantics::OpKind::kRead, std::move(sc),
                std::move(report), deadline);
}

void PasoRuntime::read_del_robust(ProcessId process, SearchCriterion sc,
                                  ReportCallback report,
                                  sim::SimTime deadline) {
  PASO_REQUIRE(groups_.is_up(self_),
               "read&del issued from a crashed machine");
  search_robust(process, semantics::OpKind::kReadDel, std::move(sc),
                std::move(report), deadline);
}

void PasoRuntime::search_robust(ProcessId process, semantics::OpKind kind,
                                SearchCriterion sc, ReportCallback report,
                                sim::SimTime deadline) {
  RobustOp op;
  op.criterion = std::move(sc);
  op.classes = schema_.candidate_classes(op.criterion);
  if (kind == semantics::OpKind::kReadDel) {
    op.remove_token = next_remove_token();
  }
  op.report = std::move(report);
  op.issued = open_op(
      kind == semantics::OpKind::kRead ? "read_robust" : "read_del_robust",
      process, kind, op.criterion);
  start_robust(process, kind, std::move(op), deadline);
}

void PasoRuntime::start_robust(ProcessId process, semantics::OpKind kind,
                               RobustOp op, sim::SimTime deadline) {
  op.id = next_robust_id_++;
  op.process = process;
  op.kind = kind;
  op.deadline = resolve_deadline(deadline);
  op.backoff = config_.retry_backoff;
  const std::uint64_t op_id = op.id;

  // Admission gate (SEDA-style): bound the robust stage's concurrency at
  // the client edge, before anything reaches the network. Over the limit
  // the op fails fast with the typed Overloaded outcome; nothing was
  // issued, but retry/backoff upstream treats it like any refused attempt.
  if (config_.admission_limit != 0 && admitted_ >= config_.admission_limit) {
    ++admission_rejections_;
    if (obs_.metrics != nullptr) {
      obs_.metrics->counter("runtime.admission.rejected", self_).inc();
    }
    robust_.emplace(op_id, std::move(op));
    robust_finish(op_id, OpStatus::kOverloaded, std::nullopt);
    return;
  }

  op.admitted = true;
  ++admitted_;
  robust_.emplace(op_id, std::move(op));
  robust_attempt(op_id);
}

void PasoRuntime::robust_attempt(std::uint64_t op_id) {
  auto it = robust_.find(op_id);
  if (it == robust_.end()) return;
  RobustOp& op = it->second;

  // Graceful degradation at the λ−k boundary: surface an explicit error
  // instead of issuing an update that could be lost (or hanging on a group
  // that cannot answer).
  for (const ClassId cls : op.classes) {
    if (degraded(cls)) {
      ++degraded_rejections_;
      robust_finish(op_id, OpStatus::kDegraded, std::nullopt);
      return;
    }
  }

  ++op.attempts;
  if (op.kind == semantics::OpKind::kInsert) {
    // The deadline caps how long the batcher may hold the op: a retry
    // issued near the deadline dispatches immediately instead of waiting
    // out the coalescing window.
    obs::OpTracer::Scope scope(obs_.tracer, op.issued.trace);
    batcher_.gcast(group_of(op.store->cls), *op.store,
                   [this, op_id](std::optional<std::any> response) {
                     if (!robust_.contains(op_id)) return;  // superseded
                     if (response.has_value()) {
                       robust_finish(op_id, OpStatus::kOk, std::nullopt);
                     }
                     // nullopt = the group emptied under us: stay pending,
                     // the timer retries or times out.
                   },
                   /*latest_dispatch=*/op.deadline);
  } else {
    search_chain(op.process, op.kind, op.criterion, op.classes, 0,
                 op.remove_token,
                 [this, op_id](SearchResponse result) {
                   if (!robust_.contains(op_id)) return;
                   robust_finish(op_id,
                                 result ? OpStatus::kOk : OpStatus::kFail,
                                 std::move(result));
                 },
                 op.issued.trace);
  }
  // The attempt may have finished synchronously (local fast path); arming is
  // a no-op then.
  robust_arm_timer(op_id);
}

void PasoRuntime::robust_arm_timer(std::uint64_t op_id) {
  auto it = robust_.find(op_id);
  if (it == robust_.end()) return;
  RobustOp& op = it->second;
  exec::Executor& sim = groups_.network().executor();
  if (op.timer_armed) {
    sim.cancel(op.timer);
    op.timer_armed = false;
  }
  sim::SimTime next = op.deadline;
  if (op.backoff != sim::kNever) next = std::min(next, sim.now() + op.backoff);
  if (next == sim::kNever) return;  // no deadline, no retries
  op.timer = sim.schedule_at(std::max(next, sim.now()),
                             [this, op_id] { robust_timer_fired(op_id); });
  op.timer_armed = true;
}

void PasoRuntime::robust_timer_fired(std::uint64_t op_id) {
  auto it = robust_.find(op_id);
  if (it == robust_.end()) return;
  RobustOp& op = it->second;
  op.timer_armed = false;
  const sim::SimTime now = groups_.network().executor().now();
  if (now >= op.deadline) {
    robust_finish(op_id, OpStatus::kTimeout, std::nullopt);
    return;
  }
  ++retries_;
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter("runtime.retries", self_).inc();
  }
  if (obs_.tracer != nullptr) {
    obs_.tracer->span(op.issued.trace, obs::SpanKind::kRetry, self_, now,
                      "backoff", static_cast<double>(op.attempts));
  }
  op.backoff *= kRetryBackoffFactor;
  robust_attempt(op_id);
}

void PasoRuntime::robust_finish(std::uint64_t op_id, OpStatus status,
                                SearchResponse object) {
  auto it = robust_.find(op_id);
  if (it == robust_.end()) return;
  RobustOp op = std::move(it->second);
  robust_.erase(it);
  if (op.timer_armed) groups_.network().executor().cancel(op.timer);
  // A timed-out, degraded or overloaded op's replicated effect may or may
  // not have been applied (a retry could still be in flight); leave the
  // record pending but abandoned, which the checker treats with crash-grade
  // pessimism. (An overloaded rejection issued nothing, but an insert's
  // identity was allocated — abandoned keeps the accounting uniform.)
  close_op(op.issued, status, object,
           /*abandon=*/status != OpStatus::kOk && status != OpStatus::kFail);
  if (op.admitted && admitted_ > 0) --admitted_;
  if (op.report) {
    OpReport report;
    report.status = status;
    report.object = status == OpStatus::kOk ? std::move(object) : std::nullopt;
    report.attempts = op.attempts;
    op.report(std::move(report));
  }
}

void PasoRuntime::on_group_view_change(const GroupName& group,
                                       const vsync::View& /*view*/) {
  if (!groups_.is_up(self_)) return;
  if (robust_.empty()) return;
  // A membership change — typically a completed state transfer after a
  // recovery, or an expulsion after a crash — is fresh routing information:
  // ops orphaned by the previous view retry promptly instead of waiting out
  // their exponential backoff.
  std::vector<std::uint64_t> rerouted;
  for (const auto& [op_id, op] : robust_) {
    if (op.backoff == sim::kNever) continue;  // retries disabled
    for (const ClassId cls : op.classes) {
      if (group_of(cls) == group) {
        rerouted.push_back(op_id);
        break;
      }
    }
  }
  exec::Executor& sim = groups_.network().executor();
  for (const std::uint64_t op_id : rerouted) {
    auto it = robust_.find(op_id);
    if (it == robust_.end()) continue;
    RobustOp& op = it->second;
    if (obs_.tracer != nullptr) {
      obs_.tracer->span(op.issued.trace, obs::SpanKind::kReroute, self_,
                        sim.now(), group);
    }
    op.backoff = config_.retry_backoff;
    if (op.timer_armed) {
      sim.cancel(op.timer);
      op.timer_armed = false;
    }
    // Decoupled from the view-installation call stack: the retry gcast is
    // enqueued from a fresh event.
    sim.schedule_after(0, [this, op_id] { robust_timer_fired(op_id); });
  }
}

// ---------------------------------------------------------------------------
// GroupControl

void PasoRuntime::request_join(ClassId cls) {
  request_join(cls, {});
}

void PasoRuntime::request_join(ClassId cls, std::function<void(bool)> done) {
  if (is_member(cls) || join_pending_.contains(cls.value)) {
    if (done) done(false);
    return;
  }
  join_pending_.insert(cls.value);
  groups_.g_join(group_of(cls), self_,
                 [this, cls, done = std::move(done)](bool ok) {
                   join_pending_.erase(cls.value);
                   if (done) done(ok);
                 });
}

void PasoRuntime::request_leave(ClassId cls) {
  if (!is_member(cls) || leave_pending_.contains(cls.value)) return;
  leave_pending_.insert(cls.value);
  groups_.g_leave(group_of(cls), self_,
                  [this, cls](bool) { leave_pending_.erase(cls.value); });
}

bool PasoRuntime::is_member(ClassId cls) const {
  return groups_.is_member(schema_.group_name(cls), self_);
}

bool PasoRuntime::is_basic_support(ClassId cls) const {
  if (!basic_support_) return false;
  const std::vector<MachineId> support = basic_support_(cls);
  return std::find(support.begin(), support.end(), self_) != support.end();
}

std::size_t PasoRuntime::live_count(ClassId cls) const {
  return server_.live_count(cls);
}

void PasoRuntime::on_machine_crash() {
  // Queued-but-undispatched batched ops die with the machine, like every
  // other piece of in-flight client state.
  batcher_.clear();
  blocking_.clear();
  exec::Executor& sim = groups_.network().executor();
  for (auto& [op_id, op] : robust_) {
    if (op.timer_armed) sim.cancel(op.timer);
  }
  robust_.clear();
  admitted_ = 0;
  join_pending_.clear();
  leave_pending_.clear();
  sticky_anchor_.clear();
  reads_issued_.clear();
  inflight_ = 0;
  ++crash_epoch_;
  if (policy_) policy_->on_machine_reset();
}

}  // namespace paso
