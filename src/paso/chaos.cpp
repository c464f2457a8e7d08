#include "paso/chaos.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace paso {

// ---------------------------------------------------------------------------
// ChaosSchedule

namespace {

/// A generated recovery lands up to this long after the mandatory
/// 2 * detection_delay + 1 downtime floor.
constexpr sim::SimTime kMaxExtraDowntime = 2500;
/// A generated delay window adds 5 to 5 + kMaxExtraDelay latency.
constexpr sim::SimTime kMaxExtraDelay = 300;

/// Fixed-precision time formatting so timelines compare byte for byte.
std::string fmt_time(sim::SimTime t) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << t;
  return os.str();
}

std::string describe_event(const ChaosEvent& ev) {
  std::ostringstream os;
  os << "t=" << fmt_time(ev.at) << " " << chaos_kind_name(ev.kind)
     << (ev.kind == ChaosEvent::Kind::kBridgePartition ? " b" : " m")
     << ev.machine;
  if (ev.kind == ChaosEvent::Kind::kDrop ||
      ev.kind == ChaosEvent::Kind::kDelay ||
      ev.kind == ChaosEvent::Kind::kBridgePartition) {
    os << " for " << fmt_time(ev.duration);
  }
  if (ev.kind == ChaosEvent::Kind::kDelay) {
    os << " +" << fmt_time(ev.extra_delay);
  }
  return os.str();
}

}  // namespace

const char* chaos_kind_name(ChaosEvent::Kind kind) {
  switch (kind) {
    case ChaosEvent::Kind::kCrash:
      return "crash";
    case ChaosEvent::Kind::kRecover:
      return "recover";
    case ChaosEvent::Kind::kDelay:
      return "delay";
    case ChaosEvent::Kind::kDrop:
      return "drop";
    case ChaosEvent::Kind::kTornTail:
      return "torn-tail";
    case ChaosEvent::Kind::kCorruptRecord:
      return "corrupt-record";
    case ChaosEvent::Kind::kLostFsync:
      return "lost-fsync";
    case ChaosEvent::Kind::kBridgePartition:
      return "bridge-partition";
  }
  return "?";
}

ChaosSchedule ChaosSchedule::generate(std::uint64_t seed, std::size_t machines,
                                      GenOptions options) {
  PASO_REQUIRE(machines > 0, "chaos schedule needs machines");
  PASO_REQUIRE(options.horizon > 0, "chaos schedule needs a positive horizon");
  ChaosSchedule schedule;
  schedule.horizon = options.horizon;
  Rng rng(seed);

  std::vector<std::uint32_t> candidates;
  for (std::uint32_t m = 0; m < machines; ++m) {
    if (!options.immune.contains(m)) candidates.push_back(m);
  }
  if (candidates.empty()) return schedule;

  // Crash/recover pairs. Crashes land in the first 70% of the horizon so
  // the recovery — and the state-transfer traffic it triggers — still falls
  // inside the run; the downtime floor gives failure detection time to
  // expel the machine before it returns with erased memory.
  const sim::SimTime floor = options.detection_delay * 2 + 1;
  for (std::size_t i = 0; i < options.crash_count; ++i) {
    ChaosEvent crash;
    crash.kind = ChaosEvent::Kind::kCrash;
    crash.machine = rng.pick(candidates);
    crash.at = rng.uniform01() * options.horizon * 0.7;
    ChaosEvent recover;
    recover.kind = ChaosEvent::Kind::kRecover;
    recover.machine = crash.machine;
    recover.at =
        crash.at + floor + rng.uniform01() * kMaxExtraDowntime;
    schedule.events.push_back(crash);
    schedule.events.push_back(recover);
  }

  // Bounded disturbance windows: drops first, then delays, so a given seed
  // assigns the same windows regardless of how the caller tweaks counts of
  // the *other* kind only when counts match — simplicity over splicing.
  for (std::size_t i = 0; i < options.drop_count + options.delay_count; ++i) {
    const bool drop = i < options.drop_count;
    ChaosEvent ev;
    ev.kind = drop ? ChaosEvent::Kind::kDrop : ChaosEvent::Kind::kDelay;
    ev.machine = rng.pick(candidates);
    ev.at = rng.uniform01() * options.horizon * 0.8;
    ev.duration =
        25 + rng.uniform01() * std::max<sim::SimTime>(0, options.max_window - 25);
    if (!drop) {
      ev.extra_delay = 5 + rng.uniform01() * kMaxExtraDelay;
    }
    schedule.events.push_back(ev);
  }

  // Disk faults last: their draws extend the stream past everything above,
  // so (seed, machines, pre-existing options) keep producing the exact
  // timeline they always did when disk_fault_count is zero.
  for (std::size_t i = 0; i < options.disk_fault_count; ++i) {
    ChaosEvent ev;
    const double kind_draw = rng.uniform01();
    ev.kind = kind_draw < 1.0 / 3   ? ChaosEvent::Kind::kTornTail
              : kind_draw < 2.0 / 3 ? ChaosEvent::Kind::kCorruptRecord
                                    : ChaosEvent::Kind::kLostFsync;
    ev.machine = rng.pick(candidates);
    ev.at = rng.uniform01() * options.horizon * 0.8;
    ev.salt = rng.uniform(0, std::numeric_limits<std::uint32_t>::max());
    schedule.events.push_back(ev);
  }

  // Bridge partitions last of all — same stream-extension contract as the
  // disk faults above, so pre-partition seeds replay unchanged.
  if (options.bridges > 0) {
    for (std::size_t i = 0; i < options.bridge_partition_count; ++i) {
      ChaosEvent ev;
      ev.kind = ChaosEvent::Kind::kBridgePartition;
      ev.machine = static_cast<std::uint32_t>(
          rng.uniform(0, static_cast<std::uint32_t>(options.bridges - 1)));
      ev.at = rng.uniform01() * options.horizon * 0.8;
      ev.duration = 25 + rng.uniform01() *
                             std::max<sim::SimTime>(0, options.max_window - 25);
      schedule.events.push_back(ev);
    }
  }

  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

std::string ChaosSchedule::to_string() const {
  std::ostringstream os;
  for (const ChaosEvent& ev : events) os << describe_event(ev) << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// ChaosEngine

ChaosEngine::ChaosEngine(Cluster& cluster, ChaosSchedule schedule)
    : cluster_(cluster), schedule_(std::move(schedule)) {
  const bool has_drop =
      std::any_of(schedule_.events.begin(), schedule_.events.end(),
                  [](const ChaosEvent& ev) {
                    return ev.kind == ChaosEvent::Kind::kDrop;
                  });
  // Dropped messages are lost forever at the bus; without the vsync layer's
  // retransmission a dropped gcast would strand its operation.
  PASO_REQUIRE(!has_drop ||
                   cluster_.groups().options().retransmit_timeout < sim::kNever,
               "drop windows need vsync retransmission "
               "(GroupService::Options::retransmit_timeout)");
}

void ChaosEngine::start() {
  if (started_) return;
  started_ = true;
  const sim::SimTime now = cluster_.simulator().now();
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    cluster_.simulator().schedule_at(std::max(now, schedule_.events[i].at),
                                     [this, i] { apply(i); });
  }
}

void ChaosEngine::note(sim::SimTime at, const std::string& line) {
  log_.push_back("t=" + fmt_time(at) + " " + line);
}

void ChaosEngine::apply(std::size_t index) {
  const ChaosEvent& ev = schedule_.events[index];
  const MachineId machine{ev.machine};
  const std::string who = "m" + std::to_string(ev.machine);
  const sim::SimTime now = cluster_.simulator().now();
  switch (ev.kind) {
    case ChaosEvent::Kind::kCrash: {
      if (!cluster_.is_up(machine)) {
        ++skipped_;
        note(now, "skip crash " + who + " (already down)");
        return;
      }
      if (cluster_.faulty_count() >= cluster_.lambda()) {
        ++skipped_;
        note(now, "skip crash " + who + " (fault budget)");
        return;
      }
      // Never take a group's last operational replica: that leaves the
      // lambda fault model entirely and legacy (non-robust) operations
      // could block forever with no group to answer them.
      for (const GroupName& group : cluster_.groups().groups_of(machine)) {
        std::size_t survivors = 0;
        for (const MachineId member :
             cluster_.groups().view_of(group).members) {
          if (member != machine && cluster_.is_up(member)) ++survivors;
        }
        if (survivors == 0) {
          ++skipped_;
          note(now, "skip crash " + who + " (last replica of " + group + ")");
          return;
        }
      }
      cluster_.crash(machine);
      ++crashes_;
      note(now, "crash " + who);
      return;
    }
    case ChaosEvent::Kind::kRecover:
      fire_recover(ev.machine);
      return;
    case ChaosEvent::Kind::kDrop:
      cluster_.network().set_drop_window(machine, now + ev.duration);
      ++windows_;
      note(now, "drop to " + who + " until " + fmt_time(now + ev.duration));
      return;
    case ChaosEvent::Kind::kDelay:
      cluster_.network().set_delay_window(machine, now + ev.duration,
                                          ev.extra_delay);
      ++windows_;
      note(now, "delay to " + who + " until " + fmt_time(now + ev.duration) +
                    " +" + fmt_time(ev.extra_delay));
      return;
    case ChaosEvent::Kind::kTornTail:
    case ChaosEvent::Kind::kCorruptRecord:
    case ChaosEvent::Kind::kLostFsync: {
      const char* name = chaos_kind_name(ev.kind);
      if (!cluster_.persistence_enabled()) {
        ++skipped_;
        note(now, std::string("skip ") + name + " " + who +
                      " (persistence off)");
        return;
      }
      using FaultKind = persist::PersistenceManager::FaultKind;
      const FaultKind fault =
          ev.kind == ChaosEvent::Kind::kTornTail ? FaultKind::kTornTail
          : ev.kind == ChaosEvent::Kind::kCorruptRecord
              ? FaultKind::kCorruptRecord
              : FaultKind::kLostFsync;
      const auto damage =
          cluster_.persistence(machine).inject_fault(fault, ev.salt);
      if (!damage) {
        ++skipped_;
        note(now,
             std::string("skip ") + name + " " + who + " (nothing durable)");
        return;
      }
      ++disk_faults_;
      note(now, std::string(name) + " " + who + " (" + *damage + ")");
      return;
    }
    case ChaosEvent::Kind::kBridgePartition: {
      // `machine` carries the bridge index for this kind.
      const std::string which = "b" + std::to_string(ev.machine);
      if (ev.machine >= cluster_.network().bridge_count()) {
        ++skipped_;
        note(now, "skip bridge-partition " + which + " (no such bridge)");
        return;
      }
      cluster_.network().set_bridge_partition(ev.machine, now + ev.duration);
      ++partitions_;
      note(now, "bridge-partition " + which + " until " +
                    fmt_time(now + ev.duration));
      return;
    }
  }
}

void ChaosEngine::fire_recover(std::uint32_t m) {
  const MachineId machine{m};
  const std::string who = "m" + std::to_string(m);
  const sim::SimTime now = cluster_.simulator().now();
  if (cluster_.is_up(machine)) {
    ++skipped_;
    note(now, "skip recover " + who + " (up)");
    return;
  }
  if (!cluster_.groups().groups_of(machine).empty()) {
    // Failure detection has not expelled the machine from all its groups
    // yet; recovering now would resurrect erased memory inside a live view.
    ++deferred_;
    note(now, "defer recover " + who);
    cluster_.simulator().schedule_after(
        cluster_.groups().options().failure_detection_delay + 1,
        [this, m] { fire_recover(m); });
    return;
  }
  ++recoveries_;
  note(now, "recover " + who);
  cluster_.recover(machine, [this, m] {
    note(cluster_.simulator().now(), "init-done m" + std::to_string(m));
  });
}

std::string ChaosEngine::timeline() const {
  std::string out;
  for (const std::string& line : log_) {
    out += line;
    out += "\n";
  }
  return out;
}

}  // namespace paso
