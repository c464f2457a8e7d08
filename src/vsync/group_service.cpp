#include "vsync/group_service.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace paso::vsync {

namespace {

/// Server-side time charged per transferred byte when a joiner installs
/// donated state; together with the bus cost of the transfer this makes
/// time(g-join) = Theta(l), the paper's join cost K.
constexpr Cost kInstallCostPerByte = 1.0;
/// Multiplier applied to the retransmit timeout after each round.
constexpr double kRetransmitBackoff = 2.0;

}  // namespace

GroupService::GroupService(net::Transport& network, Options options)
    : network_(network),
      options_(options),
      endpoints_(network.machine_count(), nullptr) {}

void GroupService::register_endpoint(MachineId machine,
                                     GroupEndpoint& endpoint) {
  PASO_REQUIRE(machine.value < endpoints_.size(), "unknown machine");
  endpoints_[machine.value] = &endpoint;
}

GroupService::Group& GroupService::group_record(const GroupName& name) {
  return groups_[name];
}

View GroupService::view_of(const GroupName& name) const {
  auto it = groups_.find(name);
  return it == groups_.end() ? View{} : it->second.view;
}

bool GroupService::is_member(const GroupName& name, MachineId machine) const {
  auto it = groups_.find(name);
  return it != groups_.end() && it->second.view.contains(machine);
}

std::size_t GroupService::group_size(const GroupName& name) const {
  auto it = groups_.find(name);
  return it == groups_.end() ? 0 : it->second.view.size();
}

std::vector<GroupName> GroupService::groups_of(MachineId machine) const {
  std::vector<GroupName> names;
  for (const auto& [name, group] : groups_) {
    if (group.view.contains(machine)) names.push_back(name);
  }
  return names;
}

void GroupService::g_join(const GroupName& name, MachineId joiner,
                          CompletionCallback done) {
  auto op = std::make_unique<Op>();
  op->kind = Op::Kind::kJoin;
  op->id = next_op_id_++;
  op->join.joiner = joiner;
  op->join.done = std::move(done);
  group_record(name).queue.push_back(std::move(op));
  pump(name);
}

void GroupService::g_leave(const GroupName& name, MachineId leaver,
                           CompletionCallback done) {
  auto op = std::make_unique<Op>();
  op->kind = Op::Kind::kLeave;
  op->id = next_op_id_++;
  op->leave.leaver = leaver;
  op->leave.done = std::move(done);
  group_record(name).queue.push_back(std::move(op));
  pump(name);
}

void GroupService::gcast(const GroupName& name, MachineId issuer,
                         Payload message, std::string tag,
                         ResponseCallback on_response) {
  gcast_to(name, issuer, std::move(message), std::move(tag), {}, SIZE_MAX,
           std::move(on_response));
}

void GroupService::gcast_to(const GroupName& name, MachineId issuer,
                            Payload message, std::string tag,
                            std::vector<MachineId> preferred,
                            std::size_t max_targets,
                            ResponseCallback on_response) {
  auto op = std::make_unique<Op>();
  op->kind = Op::Kind::kGcast;
  op->id = next_op_id_++;
  op->gcast.issuer = issuer;
  op->gcast.message = std::move(message);
  op->gcast.tag = std::move(tag);
  op->gcast.on_response = std::move(on_response);
  op->gcast.preferred = std::move(preferred);
  op->gcast.max_targets = max_targets;
  if (obs_.tracer != nullptr) op->gcast.traces = obs_.tracer->context();
  group_record(name).queue.push_back(std::move(op));
  pump(name);
}

void GroupService::pump(const GroupName& name) {
  Group& group = group_record(name);
  if (group.busy || group.queue.empty()) return;
  // Membership changes install views, and install_view touches every member
  // endpoint plus every view listener — a footprint wider than any one op's
  // domain. On a sharded transport, a join/leave reaching the head of the
  // queue inside a narrowed execution defers to a fresh global execution
  // before dispatching. The simulator's context is always global, so this
  // gate never fires there and simulated timelines stay bit-identical.
  // (Duplicate deferrals are harmless: pump() is idempotent on busy/empty.)
  if (group.queue.front()->kind != Op::Kind::kGcast &&
      !network_.context_is_global()) {
    network_.defer_exclusive([this, name] { pump(name); });
    return;
  }
  group.busy = true;
  Op& op = *group.queue.front();
  switch (op.kind) {
    case Op::Kind::kGcast:
      dispatch_gcast(name, op);
      break;
    case Op::Kind::kJoin:
      dispatch_join(name, op);
      break;
    case Op::Kind::kLeave:
      dispatch_leave(name, op);
      break;
  }
}

GroupService::Op* GroupService::active_op(const GroupName& name,
                                          std::uint64_t op_id) {
  Group& group = group_record(name);
  if (!group.busy || group.queue.empty()) return nullptr;
  Op& op = *group.queue.front();
  return op.id == op_id ? &op : nullptr;
}

void GroupService::complete_active(const GroupName& name) {
  Group& group = group_record(name);
  PASO_REQUIRE(group.busy && !group.queue.empty(), "no active op");
  group.queue.pop_front();
  group.busy = false;
  // Resume the queue from a fresh event so deep op chains cannot recurse.
  network_.executor().schedule_after(0, [this, name] { pump(name); });
}

// ---------------------------------------------------------------------------
// gcast

void GroupService::dispatch_gcast(const GroupName& name, Op& op) {
  GcastOp& g = op.gcast;
  if (!network_.is_up(g.issuer)) {
    // The issuer died before its gcast hit the head of the queue.
    complete_active(name);
    return;
  }
  const View view = view_of(name);
  if (view.empty()) {
    // Nothing to deliver to: the response is "fail" (nullopt).
    auto cb = std::move(g.on_response);
    network_.executor().schedule_after(0, [cb = std::move(cb)] {
      if (cb) cb(std::nullopt);
    });
    ++gcasts_completed_;
    complete_active(name);
    return;
  }
  g.dispatched = true;
  // Resolve the target set: preferred members first (the read group), then
  // other view members up to max_targets; a plain gcast targets everyone.
  for (const MachineId m : g.preferred) {
    if (g.targets.size() >= g.max_targets) break;
    if (view.contains(m)) g.targets.insert(m);
  }
  for (const MachineId m : view.members) {
    if (g.targets.size() >= g.max_targets) break;
    g.targets.insert(m);
  }
  g.pending_acks = g.targets;
  const std::uint64_t op_id = op.id;
  if (obs_.tracer != nullptr) {
    for (const obs::TraceId t : g.traces) {
      obs_.tracer->span(t, obs::SpanKind::kDispatch, g.issuer,
                        network_.executor().now(), g.tag,
                        static_cast<double>(g.targets.size()));
    }
  }
  obs::OpTracer::Scope scope(obs_.tracer, g.traces);
  for (const MachineId member : g.targets) {
    network_.send(g.issuer, member, g.tag, g.message.bytes,
                  [this, name, op_id, member] {
                    member_deliver(name, op_id, member);
                  });
  }
  if (options_.retransmit_timeout < sim::kNever) {
    schedule_retransmit(name, op_id, options_.retransmit_timeout);
  }
}

void GroupService::schedule_retransmit(const GroupName& name,
                                       std::uint64_t op_id,
                                       sim::SimTime delay) {
  network_.executor().schedule_after(delay, [this, name, op_id, delay] {
    Op* op = active_op(name, op_id);
    if (op == nullptr || op->kind != Op::Kind::kGcast) return;  // done
    GcastOp& g = op->gcast;
    if (!g.dispatched || g.pending_acks.empty()) return;
    if (!network_.is_up(g.issuer)) return;  // detector will settle this op
    // Re-send the message to every target whose ack is still outstanding.
    // Members that already processed it re-ack without re-processing
    // (member_deliver dedups on `results`), so delivery stays exactly-once
    // even though transmission is at-least-once.
    obs::OpTracer::Scope scope(obs_.tracer, g.traces);
    for (const MachineId member : g.pending_acks) {
      if (!network_.is_up(member)) continue;
      ++retransmits_;
      if (obs_.metrics != nullptr) {
        obs_.metrics->counter("vsync.retransmits").inc();
      }
      if (obs_.tracer != nullptr) {
        for (const obs::TraceId t : g.traces) {
          obs_.tracer->span(t, obs::SpanKind::kRetry, g.issuer,
                            network_.executor().now(), "retransmit");
        }
      }
      network_.send(g.issuer, member, g.tag, g.message.bytes,
                    [this, name, op_id, member] {
                      member_deliver(name, op_id, member);
                    });
    }
    schedule_retransmit(name, op_id, delay * kRetransmitBackoff);
  });
}

void GroupService::member_deliver(const GroupName& name, std::uint64_t op_id,
                                  MachineId member) {
  Op* op = active_op(name, op_id);
  if (op == nullptr || op->kind != Op::Kind::kGcast) return;  // superseded
  GcastOp& g = op->gcast;
  if (!g.pending_acks.contains(member)) return;  // acked or pruned
  if (g.results.contains(member)) {
    // Duplicate delivery (retransmission after the first ack was lost):
    // the member already processed the message — just re-ack.
    send_ack(name, op_id, member);
    return;
  }

  GroupEndpoint* endpoint = endpoints_[member.value];
  PASO_REQUIRE(endpoint != nullptr, "member without endpoint");
  GcastResult result;
  {
    // Marker notifications and other sends the server makes while serving
    // count against the ops this gcast carries.
    obs::OpTracer::Scope scope(obs_.tracer, g.traces);
    result = endpoint->handle_gcast(name, g.message);
  }
  network_.ledger().charge_work(member, result.processing);
  const Cost processing = result.processing;
  if (obs_.tracer != nullptr) {
    for (const obs::TraceId t : g.traces) {
      obs_.tracer->span(t, obs::SpanKind::kServe, member,
                        network_.executor().now(), {}, processing);
    }
  }
  g.results.emplace(member, std::move(result));

  // After processing, the member sends an empty done-ack to the leader
  // (Section 3.3: "each of g-name's members sends an empty message to some
  // designated server"). Ack bookkeeping is service-side, standing in for
  // ISIS's internal re-gathering when leaders fail.
  network_.executor().schedule_after(processing,
                                      [this, name, op_id, member] {
                                        send_ack(name, op_id, member);
                                      });
}

void GroupService::send_ack(const GroupName& name, std::uint64_t op_id,
                            MachineId member) {
  if (!network_.is_up(member)) return;  // crashed before acking
  const View view = view_of(name);
  const MachineId leader = view.empty() ? member : view.leader();
  const Op* op = active_op(name, op_id);
  obs::OpTracer::Scope scope(
      obs_.tracer, op != nullptr && op->kind == Op::Kind::kGcast
                       ? op->gcast.traces
                       : std::vector<obs::TraceId>{});
  network_.send(member, leader, "gcast-ack", 0, [this, name, op_id, member] {
    member_acked(name, op_id, member);
  });
}

void GroupService::member_acked(const GroupName& name, std::uint64_t op_id,
                                MachineId member) {
  Op* op = active_op(name, op_id);
  if (op == nullptr || op->kind != Op::Kind::kGcast) return;
  op->gcast.pending_acks.erase(member);
  maybe_complete_gcast(name, *op);
}

void GroupService::maybe_complete_gcast(const GroupName& name, Op& op) {
  GcastOp& g = op.gcast;
  if (!g.pending_acks.empty()) return;

  // All targeted members processed the message; one response is forwarded to
  // the issuer. All responses are equal in this model (replicas), so the
  // classic choice — the current leader's result when the leader was a
  // target, else the lowest-id target's — is overridden only by a target
  // *strictly nearer* to the issuer (fewer bridge hops; among nearer
  // targets fewest hops wins, ties to the lowest id). On a single bus every
  // hop count is equal, so no override ever fires and the pre-topology
  // behavior is preserved exactly; on a segmented topology the override
  // keeps the payload-bearing response off the bridges whenever a replica
  // co-located with the issuer answered.
  const View view = view_of(name);
  std::any body;
  std::size_t bytes = 0;
  MachineId responder = g.issuer;
  auto it = view.empty() ? g.results.begin() : g.results.find(view.leader());
  if (it == g.results.end()) it = g.results.begin();
  if (it != g.results.end()) {
    std::size_t best_hops = network_.topology().hops(g.issuer, it->first);
    for (auto cand = g.results.begin(); cand != g.results.end(); ++cand) {
      const std::size_t hops =
          network_.topology().hops(g.issuer, cand->first);
      if (hops < best_hops) {
        it = cand;
        best_hops = hops;
      }
    }
  }
  if (it != g.results.end()) {
    body = it->second.response;
    bytes = it->second.response_bytes;
    responder = it->first;
  } else if (!view.empty()) {
    responder = view.leader();
  }
  if (network_.is_up(g.issuer)) {
    if (obs_.tracer != nullptr) {
      for (const obs::TraceId t : g.traces) {
        obs_.tracer->span(t, obs::SpanKind::kResponse, responder,
                          network_.executor().now(), {},
                          static_cast<double>(bytes));
      }
    }
    obs::OpTracer::Scope scope(obs_.tracer, g.traces);
    auto cb = std::move(g.on_response);
    network_.send(responder, g.issuer, g.tag + "/resp", bytes,
                  [cb = std::move(cb), body = std::move(body)] {
                    if (cb) cb(std::make_optional(std::move(body)));
                  });
  }
  ++gcasts_completed_;
  complete_active(name);
}

// ---------------------------------------------------------------------------
// join / leave

void GroupService::dispatch_join(const GroupName& name, Op& op) {
  JoinOp& j = op.join;
  const bool can_join = network_.is_up(j.joiner) &&
                        endpoints_[j.joiner.value] != nullptr &&
                        !is_member(name, j.joiner);
  if (!can_join) {
    if (j.done) j.done(false);
    complete_active(name);
    return;
  }
  const View view = view_of(name);
  if (view.empty()) {
    // First member: nothing to transfer.
    install_view(name, {j.joiner});
    if (j.done) j.done(true);
    complete_active(name);
    return;
  }

  // Delta negotiation: a joiner that recovered local durable state
  // advertises its (checkpoint epoch, lsn); if the donor's log still covers
  // the gap it ships only the suffix. Any refusal — persistence off, joiner
  // too stale, donor log damaged — silently degrades to the full blob.
  GroupEndpoint* joiner_ep = endpoints_[j.joiner.value];
  PASO_REQUIRE(joiner_ep != nullptr, "joiner without endpoint");
  DurablePosition position;
  if (!j.force_full) position = joiner_ep->durable_position(name);

  // Donor state transfer (Section 4.2): one member captures its state for
  // this group and ships it to the joiner. The group's queue stays blocked
  // until the transfer completes, so "no communication to g-name is
  // processed by any of g-name's members" during the transfer.
  //
  // Donor selection by durable position: the leader is the default donor,
  // but when the joiner advertises a durable position we prefer the member
  // whose retained log reaches furthest back among those that can still
  // serve a delta (delta_floor <= joiner lsn) — the leader may have
  // checkpoint-compacted past the joiner and force a full-blob fallback a
  // sibling's deeper log could have avoided. Members are scanned in view
  // order (leader first) with a strict improvement test, so equal floors —
  // and every run without persistence — keep the classic leader donor.
  MachineId donor = view.leader();
  if (position.valid) {
    std::optional<std::uint64_t> best_floor;
    for (const MachineId m : view.members) {
      GroupEndpoint* ep = network_.is_up(m) ? endpoints_[m.value] : nullptr;
      if (ep == nullptr) continue;
      const std::optional<std::uint64_t> floor = ep->delta_floor(name);
      if (!floor.has_value() || *floor > position.lsn) continue;
      if (!best_floor.has_value() || *floor < *best_floor) {
        best_floor = floor;
        donor = m;
      }
    }
  }
  j.donor = donor;
  j.transfer_in_flight = true;
  ++j.transfer_seq;
  if (j.started_at < 0) j.started_at = network_.executor().now();
  GroupEndpoint* donor_ep = endpoints_[donor.value];
  PASO_REQUIRE(donor_ep != nullptr, "donor without endpoint");

  std::optional<StateBlob> delta;
  if (position.valid) delta = donor_ep->capture_delta(name, position);
  const bool is_delta = delta.has_value();
  StateBlob blob = is_delta ? std::move(*delta) : donor_ep->capture_state(name);
  const Cost copy_cost = kInstallCostPerByte * static_cast<Cost>(blob.bytes);
  network_.ledger().charge_work(donor, copy_cost);
  if (obs_.metrics != nullptr) {
    if (is_delta) {
      obs_.metrics->counter("vsync.delta_transfers").inc();
      obs_.metrics->counter("vsync.delta_transfer_bytes").inc(blob.bytes);
    } else {
      obs_.metrics->counter("vsync.state_transfers").inc();
      obs_.metrics->counter("vsync.state_transfer_bytes").inc(blob.bytes);
    }
  }

  send_transfer(name, op.id, j.transfer_seq, donor, copy_cost, is_delta,
                std::make_shared<StateBlob>(std::move(blob)),
                options_.retransmit_timeout);
}

void GroupService::send_transfer(const GroupName& name, std::uint64_t op_id,
                                 std::uint64_t seq, MachineId donor,
                                 Cost copy_cost, bool is_delta,
                                 std::shared_ptr<StateBlob> blob,
                                 sim::SimTime retry_delay) {
  Op* op = active_op(name, op_id);
  if (op == nullptr || op->kind != Op::Kind::kJoin) return;
  network_.send(
      donor, op->join.joiner,
      is_delta ? "state-xfer-delta" : "state-xfer", blob->bytes,
      [this, name, op_id, seq, donor, copy_cost, is_delta, blob] {
        Op* active = active_op(name, op_id);
        if (active == nullptr || active->kind != Op::Kind::kJoin) return;
        JoinOp& join = active->join;
        if (!join.transfer_in_flight || join.transfer_seq != seq ||
            join.donor != donor) {
          return;  // stale: duplicate delivery or a restarted transfer
        }
        join.transfer_in_flight = false;  // donor crash can no longer abort
        GroupEndpoint* joiner_ep = endpoints_[join.joiner.value];
        PASO_REQUIRE(joiner_ep != nullptr, "joiner without endpoint");
        if (is_delta) {
          if (!joiner_ep->install_delta(name, *blob)) {
            // The suffix did not line up with the joiner's recovered state:
            // abandon the delta and restart this join as a full transfer.
            if (obs_.metrics != nullptr) {
              obs_.metrics->counter("vsync.delta_fallbacks").inc();
            }
            join.force_full = true;
            dispatch_join(name, *active);
            return;
          }
        } else {
          // The one install of this transfer: duplicates and superseded
          // copies returned above, so the blob can be handed over.
          joiner_ep->install_state(name, std::move(*blob));
        }
        network_.ledger().charge_work(join.joiner, copy_cost);
        // Installation takes time proportional to the state size; the view
        // change is installed when it finishes.
        network_.executor().schedule_after(copy_cost, [this, name, op_id] {
          Op* done_op = active_op(name, op_id);
          if (done_op == nullptr || done_op->kind != Op::Kind::kJoin) return;
          finish_join(name, *done_op);
        });
      });
  // The transfer is a bare point-to-point send with no ack of its own, and
  // every later op on this group serializes behind the join — a drop window
  // that ate the blob would wedge the group queue forever. Re-send on the
  // gcast retransmit cadence until a copy lands; the arrival handler clears
  // transfer_in_flight, so duplicates (and retries from a superseded
  // transfer, via the seq check) are no-ops.
  if (retry_delay < sim::kNever) {
    network_.executor().schedule_after(
        retry_delay, [this, name, op_id, seq, donor, copy_cost, is_delta,
                      blob, retry_delay] {
          Op* again = active_op(name, op_id);
          if (again == nullptr || again->kind != Op::Kind::kJoin) return;
          JoinOp& join = again->join;
          if (!join.transfer_in_flight || join.transfer_seq != seq) return;
          if (!network_.is_up(donor) || !network_.is_up(join.joiner)) return;
          ++retransmits_;
          if (obs_.metrics != nullptr) {
            obs_.metrics->counter("vsync.retransmits").inc();
          }
          send_transfer(name, op_id, seq, donor, copy_cost, is_delta,
                        std::move(blob),
                        retry_delay * kRetransmitBackoff);
        });
  }
}

void GroupService::finish_join(const GroupName& name, Op& op) {
  JoinOp& j = op.join;
  if (!network_.is_up(j.joiner)) {
    // Joiner crashed between transfer and installation.
    complete_active(name);
    return;
  }
  if (obs_.metrics != nullptr && j.started_at >= 0) {
    obs_.metrics
        ->histogram("vsync.state_transfer_duration",
                    {10, 50, 100, 500, 1000, 5000, 10000})
        .observe(network_.executor().now() - j.started_at);
  }
  std::vector<MachineId> members = view_of(name).members;
  members.push_back(j.joiner);
  install_view(name, std::move(members));
  if (j.done) j.done(true);
  complete_active(name);
}

void GroupService::dispatch_leave(const GroupName& name, Op& op) {
  LeaveOp& l = op.leave;
  if (!is_member(name, l.leaver)) {
    if (l.done) l.done(false);
    complete_active(name);
    return;
  }
  std::vector<MachineId> members = view_of(name).members;
  std::erase(members, l.leaver);
  install_view(name, std::move(members));
  GroupEndpoint* endpoint = endpoints_[l.leaver.value];
  if (endpoint != nullptr && network_.is_up(l.leaver)) {
    endpoint->erase_state(name);
  }
  if (l.done) l.done(true);
  complete_active(name);
}

void GroupService::install_view(const GroupName& name,
                                std::vector<MachineId> members) {
  std::sort(members.begin(), members.end());
  Group& group = group_record(name);
  group.view.members = std::move(members);
  group.view.id = ViewId{next_view_id_++};
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter("vsync.view_changes").inc();
  }
  PASO_TRACE("vsync") << "group " << name << " view " << group.view;
  const View installed = group.view;  // listeners may mutate groups_
  for (const MachineId member : installed.members) {
    GroupEndpoint* endpoint = endpoints_[member.value];
    if (endpoint != nullptr && network_.is_up(member)) {
      endpoint->on_view_change(name, installed);
    }
  }
  for (const ViewListener& listener : view_listeners_) {
    listener(name, installed);
  }
}

// ---------------------------------------------------------------------------
// crash plane

void GroupService::machine_crashed(MachineId machine) {
  if (!network_.is_up(machine)) return;
  network_.set_up(machine, false);
  network_.executor().schedule_after(
      options_.failure_detection_delay,
      [this, machine] { on_failure_detected(machine); });
}

void GroupService::machine_recovered(MachineId machine) {
  PASO_REQUIRE(!network_.is_up(machine), "machine is already up");
  // The failure detector must have expelled the machine from its groups by
  // now; a machine cannot serve group traffic with erased memory. The fault
  // injector keeps downtime above the detection delay.
  PASO_REQUIRE(groups_of(machine).empty(),
               "machine recovered before failure detection completed");
  network_.set_up(machine, true);
}

void GroupService::on_failure_detected(MachineId machine) {
  if (network_.is_up(machine)) return;  // raced with recovery (not expected)
  for (auto& [name, group] : groups_) {
    if (!group.view.contains(machine)) continue;
    std::vector<MachineId> members = group.view.members;
    std::erase(members, machine);
    install_view(name, std::move(members));

    if (!group.busy || group.queue.empty()) continue;
    Op& op = *group.queue.front();
    switch (op.kind) {
      case Op::Kind::kGcast: {
        GcastOp& g = op.gcast;
        if (!g.dispatched) break;
        // Re-gather: acks are now needed only from targets that are still in
        // the view and have not produced a result.
        std::set<MachineId> pending;
        for (const MachineId m : g.targets) {
          if (group.view.contains(m) && !g.results.contains(m)) {
            pending.insert(m);
          }
        }
        g.pending_acks = std::move(pending);
        maybe_complete_gcast(name, op);
        break;
      }
      case Op::Kind::kJoin: {
        JoinOp& j = op.join;
        if (j.joiner == machine) {
          complete_active(name);
        } else if (j.transfer_in_flight && j.donor == machine) {
          // Donor died mid-transfer: restart with a new donor.
          j.transfer_in_flight = false;
          dispatch_join(name, op);
        }
        break;
      }
      case Op::Kind::kLeave:
        break;  // leaves are atomic at dispatch
    }
  }
}

}  // namespace paso::vsync
