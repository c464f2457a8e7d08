// BasicReplicationPolicy: the Section 5.1 counter algorithm wired into the
// live system. One CounterAutomaton (or DoublingAutomaton) per object class
// observed; join/leave actions turn into g-join/g-leave requests through
// GroupControl. install_basic_policies() equips every machine of a Cluster.
#pragma once

#include <memory>
#include <unordered_map>

#include "adaptive/counter.hpp"
#include "adaptive/doubling.hpp"
#include "paso/cluster.hpp"
#include "paso/replication_policy.hpp"

namespace paso::adaptive {

struct BasicPolicyOptions {
  Cost join_cost = 8;   ///< K (fixed mode) or the initial K (doubling mode)
  Cost query_cost = 1;  ///< q
  /// Doubling/halving mode (Theorem 3): K tracks the live-object count, so
  /// the effective join cost is max(1, l) * query normalization.
  bool doubling = false;
};

class BasicReplicationPolicy final : public ReplicationPolicy {
 public:
  BasicReplicationPolicy(GroupControl& control, BasicPolicyOptions options)
      : control_(control), options_(options) {}

  void on_local_read(ClassId cls, bool served_locally,
                     std::size_t remote_targets) override;
  void on_update_served(ClassId cls) override;
  void on_machine_reset() override { reset_all(); }

  /// Crash wipes the machine: every automaton reverts to non-member.
  void reset_all();

  /// Introspection for tests and benches.
  Cost counter(ClassId cls);

 private:
  struct Entry {
    std::unique_ptr<CounterAutomaton> fixed;
    std::unique_ptr<DoublingAutomaton> doubling;
  };
  Entry& entry_of(ClassId cls);
  Cost observed_join_cost(ClassId cls) const;
  void apply(ClassId cls, CounterAction action);

  GroupControl& control_;
  BasicPolicyOptions options_;
  std::unordered_map<std::uint32_t, Entry> entries_;
};

/// Install a BasicReplicationPolicy on every machine of the cluster.
void install_basic_policies(Cluster& cluster, BasicPolicyOptions options);

}  // namespace paso::adaptive
