// The per-machine contract between the group layer and its users.
//
// A memory server (Section 4.2) registers one GroupEndpoint per machine.
// GroupService calls back into it to process gcast messages, to donate or
// install state during join transfers, and to observe view changes.
#pragma once

#include <any>
#include <cstddef>
#include <optional>

#include "common/cost.hpp"
#include "common/ids.hpp"
#include "vsync/view.hpp"

namespace paso::vsync {

/// A gcast message body. The body is an in-process value (the simulator
/// shares one address space); `bytes` is its declared wire size, used by the
/// cost model. All costs are computed from `bytes`, never from sizeof.
struct Payload {
  std::any body;
  std::size_t bytes = 0;
};

/// What a member produces when it processes a gcast.
struct GcastResult {
  std::any response;             ///< response body (empty any == "fail")
  std::size_t response_bytes = 0;  ///< wire size of the response
  Cost processing = 0;           ///< server time spent (I/Q/D units)
};

/// State transferred to a joining member (Section 4.2's initiation
/// procedure): an opaque blob plus its size g(l), which determines both the
/// transfer's message cost and the join duration K.
struct StateBlob {
  std::any state;
  std::size_t bytes = 0;
};

/// What a joiner with local durable state advertises in g-join: the
/// checkpoint generation and last log sequence number it recovered to. A
/// donor that still holds the log suffix past `lsn` can ship a delta instead
/// of the full blob, shrinking the transfer from O(l) to O(delta).
struct DurablePosition {
  bool valid = false;
  std::uint64_t epoch = 0;
  std::uint64_t lsn = 0;
};

class GroupEndpoint {
 public:
  virtual ~GroupEndpoint() = default;

  /// Process a message gcast to `group`. Called exactly once per delivered
  /// message, in the same order on every member (total order).
  virtual GcastResult handle_gcast(const GroupName& group,
                                   const Payload& message) = 0;

  /// Donor side of a join: capture all state this member holds for `group`.
  virtual StateBlob capture_state(const GroupName& group) = 0;

  /// Joiner side: install the donated state. After this returns, the
  /// joiner's state is consistent with the group (Section 4.2). The blob is
  /// the endpoint's: state no other copy of it shares may be taken over
  /// rather than copied.
  virtual void install_state(const GroupName& group, StateBlob blob) = 0;

  /// Called on a member that has left (voluntarily) so it can erase the
  /// group's data ("for sake of space efficiency, servers should erase all
  /// information when leaving a group").
  virtual void erase_state(const GroupName& group) = 0;

  // --- delta state transfer (optional; endpoints without local durability
  // keep the defaults and always receive full transfers) ---------------------

  /// Joiner side: the durable position this member recovered to, or invalid
  /// when it has nothing durable for the group.
  virtual DurablePosition durable_position(const GroupName& group) {
    (void)group;
    return {};
  }

  /// Donor side: capture only the changes past `position`, or nullopt when
  /// the delta cannot be served (position too stale, local log damaged,
  /// persistence off) — the service then falls back to capture_state.
  virtual std::optional<StateBlob> capture_delta(
      const GroupName& group, const DurablePosition& position) {
    (void)group;
    (void)position;
    return std::nullopt;
  }

  /// Donor side: how far back this member's retained log reaches for
  /// `group` (its compaction horizon — the lsn just below the oldest
  /// retained record). A delta can be served to any joiner whose durable
  /// lsn is >= this floor. nullopt when this member cannot donate deltas
  /// at all (persistence off, no local state). GroupService uses it to
  /// pick the donor whose log reaches furthest back instead of blindly
  /// asking the leader.
  virtual std::optional<std::uint64_t> delta_floor(const GroupName& group) {
    (void)group;
    return std::nullopt;
  }

  /// Joiner side: apply a delta blob on top of locally recovered state.
  /// Returning false aborts the delta (the blob did not line up with the
  /// local state); the service restarts the join as a full transfer.
  virtual bool install_delta(const GroupName& group, const StateBlob& blob) {
    (void)group;
    (void)blob;
    return false;
  }

  /// Membership notification: every member observes the same sequence of
  /// views, consistently ordered with message deliveries.
  virtual void on_view_change(const GroupName& group, const View& view) = 0;
};

}  // namespace paso::vsync
