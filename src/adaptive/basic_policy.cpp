#include "adaptive/basic_policy.hpp"

namespace paso::adaptive {

BasicReplicationPolicy::Entry& BasicReplicationPolicy::entry_of(ClassId cls) {
  auto it = entries_.find(cls.value);
  if (it != entries_.end()) return it->second;

  Entry entry;
  const bool is_basic = control_.is_basic_support(cls);
  const bool member = control_.is_member(cls);
  if (options_.doubling) {
    entry.doubling = std::make_unique<DoublingAutomaton>(
        DoublingAutomaton::Config{options_.join_cost, options_.query_cost,
                                  is_basic, member});
  } else {
    entry.fixed = std::make_unique<CounterAutomaton>(
        CounterConfig{options_.join_cost, options_.query_cost, is_basic,
                      member});
  }
  return entries_.emplace(cls.value, std::move(entry)).first->second;
}

Cost BasicReplicationPolicy::observed_join_cost(ClassId cls) const {
  // In doubling mode the join cost tracks the live-object count: copying the
  // class state is Theta(l) (Section 5). Non-members see l = 0 locally; they
  // learn K piggybacked on reads in the paper — here the automaton simply
  // keeps its last doubled/halved estimate until membership exposes l again.
  const std::size_t live = control_.live_count(cls);
  return std::max<Cost>(1, static_cast<Cost>(live));
}

void BasicReplicationPolicy::apply(ClassId cls, CounterAction action) {
  switch (action) {
    case CounterAction::kJoin:
      control_.request_join(cls);
      break;
    case CounterAction::kLeave:
      control_.request_leave(cls);
      break;
    case CounterAction::kNone:
      break;
  }
}

void BasicReplicationPolicy::on_local_read(ClassId cls, bool served_locally,
                                           std::size_t remote_targets) {
  Entry& entry = entry_of(cls);
  const std::size_t rg = served_locally ? 0 : std::max<std::size_t>(1, remote_targets);
  if (entry.doubling) {
    apply(cls, entry.doubling->on_read(rg, observed_join_cost(cls)));
  } else {
    apply(cls, entry.fixed->on_read(rg));
  }
}

void BasicReplicationPolicy::on_update_served(ClassId cls) {
  Entry& entry = entry_of(cls);
  if (entry.doubling) {
    apply(cls, entry.doubling->on_update(observed_join_cost(cls)));
  } else {
    apply(cls, entry.fixed->on_update());
  }
}

void BasicReplicationPolicy::reset_all() { entries_.clear(); }

Cost BasicReplicationPolicy::counter(ClassId cls) {
  Entry& entry = entry_of(cls);
  return entry.doubling ? entry.doubling->counter() : entry.fixed->counter();
}

void install_basic_policies(Cluster& cluster, BasicPolicyOptions options) {
  for (std::uint32_t m = 0; m < cluster.machine_count(); ++m) {
    PasoRuntime& runtime = cluster.runtime(MachineId{m});
    runtime.set_policy(
        std::make_unique<BasicReplicationPolicy>(runtime, options));
  }
}

}  // namespace paso::adaptive
