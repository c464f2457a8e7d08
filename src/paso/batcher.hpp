// Gcast operation batching: amortizing the per-gcast 2*alpha.
//
// Every gcast pays |g|*(2*alpha + beta*(|msg|+|resp|)) (Section 3), so a
// burst of small operations is alpha-dominated. GcastBatcher sits between
// the runtime and the GroupService and coalesces the store / mem-read /
// remove messages bound for the same route (group + read-group restriction)
// issued within a configurable window into ONE gcast carrying a BatchMsg —
// one 2*alpha per batch instead of per operation. The gathered
// BatchResponse is fanned back out, one slot per op in queue order, in
// exactly the std::any shape each op's callback would have received had it
// gone out alone:
//   * store op    -> a disengaged SearchResponse; the robust-insert path
//                    treats any arrived response as the ack, matching the
//                    unbatched store whose response body is empty;
//   * read/remove -> the found object or nullopt;
//   * whole batch abandoned (nullopt from the group layer, e.g. empty view
//     or issuer expelled) -> every op's callback gets nullopt, the same
//     signal an abandoned lone gcast produces.
//
// Semantics preserved:
//   * window == 0 (the default) is exact pass-through — every call forwards
//     to GroupService::gcast_to unchanged, so all existing behavior and cost
//     accounting is untouched until the knob is turned.
//   * A flush holding a single operation dispatches the op as its own
//     message and tag, not a one-element batch, so a lone op never pays
//     batch framing.
//   * Operations only combine within a route: same group AND same
//     preferred/max_targets restriction, so read-group routing (Section 4.3)
//     is unaffected; one group serves one class, so a batch is one class.
//   * `latest_dispatch` lets deadline-driven callers cap how long an op may
//     sit in the queue (a retry about to expire must not wait the window
//     out).
//   * Total order: ops inside a batch are delivered in enqueue order at
//     every member, and batches serialize through the group queue like any
//     other gcast.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "obs/obs.hpp"
#include "paso/messages.hpp"
#include "vsync/group_service.hpp"

namespace paso {

class GcastBatcher {
 public:
  using ResponseCallback = vsync::GroupService::ResponseCallback;

  /// `window`: an enqueued op is dispatched at most this much simulated
  /// time after it was issued; 0 disables batching entirely. A route's
  /// queue is flushed as soon as it holds `max_batch` ops.
  GcastBatcher(vsync::GroupService& groups, MachineId self,
               sim::SimTime window, std::size_t max_batch)
      : groups_(groups), self_(self), window_(window), max_batch_(max_batch) {}

  ~GcastBatcher() { clear(); }

  GcastBatcher(const GcastBatcher&) = delete;
  GcastBatcher& operator=(const GcastBatcher&) = delete;

  /// Full-group gcast of `op` through the batcher.
  void gcast(const GroupName& group, BatchableOp op,
             ResponseCallback on_response = {},
             sim::SimTime latest_dispatch = sim::kNever) {
    gcast_to(group, std::move(op), {}, SIZE_MAX, std::move(on_response),
             latest_dispatch);
  }

  /// Read-group-restricted gcast of `op` through the batcher.
  void gcast_to(const GroupName& group, BatchableOp op,
                std::vector<MachineId> preferred, std::size_t max_targets,
                ResponseCallback on_response = {},
                sim::SimTime latest_dispatch = sim::kNever);

  /// Drop all queued ops WITHOUT dispatching or invoking callbacks — crash
  /// semantics: the issuer machine died, its pending ops die with it.
  void clear();

  /// Multi-op gcasts dispatched so far.
  std::uint64_t batches() const { return batches_; }
  /// Ops that traveled inside those multi-op gcasts.
  std::uint64_t batched_ops() const { return batched_ops_; }
  /// Ops currently parked across all route queues.
  std::size_t queued() const {
    std::size_t n = 0;
    for (const auto& [key, queue] : queues_) n += queue.ops.size();
    return n;
  }

  void set_obs(obs::Obs o) { obs_ = o; }

 private:
  struct PendingOp {
    BatchableOp op;
    ResponseCallback on_response;
    /// Traces riding on this op, captured from the tracer context at enqueue
    /// so the eventual (often timer-driven) dispatch re-attributes correctly.
    std::vector<obs::TraceId> traces;
    sim::SimTime enqueued_at = 0;
  };
  /// Ops may only combine when they'd produce the very same gcast routing.
  struct RouteKey {
    GroupName group;
    std::vector<MachineId> preferred;
    std::size_t max_targets = SIZE_MAX;
    auto operator<=>(const RouteKey&) const = default;
  };
  struct RouteQueue {
    std::vector<PendingOp> ops;
    sim::SimTime due = sim::kNever;
    std::optional<sim::EventId> timer;
  };

  void flush(const RouteKey& key);
  exec::Executor& executor() { return groups_.network().executor(); }

  vsync::GroupService& groups_;
  MachineId self_;
  sim::SimTime window_;
  std::size_t max_batch_;
  obs::Obs obs_;
  std::map<RouteKey, RouteQueue> queues_;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_ops_ = 0;
};

}  // namespace paso
