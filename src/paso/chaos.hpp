// Fault injection (Section 3.1's fault model, driven).
//
// ChaosSchedule / ChaosEngine drive every fault run: a replayable timeline
// of crash, recover, message-delay, message-drop, disk and bridge-partition
// events, either written out explicitly or generated from a seed, applied
// to the cluster with every decision logged so two runs of the same seed
// can be compared event for event. The engine keeps a run inside the
// lambda-bounded fault model under which the system promises safety: it
// never exceeds the fault budget, and a recovery waits out the
// failure-detection delay (a machine cannot serve with erased memory before
// the membership service has expelled it). Soak tests and benches run
// workloads under a schedule and then check the Section 2 axioms.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "paso/cluster.hpp"

namespace paso {

/// One event on a chaos timeline. Times are absolute virtual times.
struct ChaosEvent {
  enum class Kind {
    kCrash,    ///< crash `machine` (erased memory, Section 3.1)
    kRecover,  ///< bring `machine` back through its initialization phase
    kDelay,    ///< messages *to* `machine` gain extra_delay until at+duration
    kDrop,     ///< messages *to* `machine` vanish on delivery until at+duration
    kTornTail,       ///< chop bytes off a WAL tail on `machine`'s disk
    kCorruptRecord,  ///< flip a byte inside a WAL on `machine`'s disk
    kLostFsync,      ///< drop the last whole WAL record (write never landed)
    kBridgePartition,  ///< bridge `machine` drops crossings until at+duration
  };
  Kind kind = Kind::kCrash;
  sim::SimTime at = 0;
  std::uint32_t machine = 0;  ///< kBridgePartition: the bridge index instead
  sim::SimTime duration = 0;  ///< window length (kDelay / kDrop / partition)
  sim::SimTime extra_delay = 0;  ///< added latency (kDelay only)
  std::uint64_t salt = 0;        ///< disk faults: picks the victim class/byte
};

const char* chaos_kind_name(ChaosEvent::Kind kind);

/// A replayable fault timeline: explicit events, or generated from a seed.
struct ChaosSchedule {
  std::vector<ChaosEvent> events;  ///< generate() emits these sorted by `at`
  sim::SimTime horizon = 0;        ///< generation window

  struct GenOptions {
    sim::SimTime horizon = 15000;
    std::size_t crash_count = 2;  ///< crash/recover pairs
    std::size_t drop_count = 2;   ///< drop windows
    std::size_t delay_count = 2;  ///< delay windows
    sim::SimTime max_window = 1200;  ///< longest drop/delay window
    /// The target cluster's failure-detection delay (downtime floor input).
    sim::SimTime detection_delay = 50;
    /// Machines never crashed, dropped or delayed (e.g. the test driver's).
    std::set<std::uint32_t> immune;
    /// Disk faults (torn tail / corrupt record / lost fsync) against
    /// machines' durable files. Zero by default — and the draws for these
    /// come after every pre-existing draw, so schedules generated without
    /// disk faults are identical to what earlier versions produced.
    std::size_t disk_fault_count = 0;
    /// Bridge-partition windows: a bridge of the segmented topology drops
    /// every message whose transmission crosses it during the window. Zero
    /// by default, and these draws come after the disk-fault draws — same
    /// seed-stability contract as above. `bridges` is the target topology's
    /// bridge count (segments - 1); with 0 bridges no windows are drawn.
    std::size_t bridge_partition_count = 0;
    std::size_t bridges = 0;
  };

  /// Deterministic: the same (seed, machines, options) always yields the
  /// same schedule. Every crash is paired with a recover after a downtime
  /// of at least 2 * detection_delay + 1 (the failure detector must expel
  /// the machine before it may re-join with erased memory); drop and delay
  /// windows are bounded by max_window so every run terminates.
  static ChaosSchedule generate(std::uint64_t seed, std::size_t machines,
                                GenOptions options);
  static ChaosSchedule generate(std::uint64_t seed, std::size_t machines) {
    return generate(seed, machines, GenOptions{});
  }

  std::string to_string() const;
};

/// Applies a ChaosSchedule to a live cluster, deterministically.
///
/// A schedule generated blindly from a seed cannot know the run's actual
/// fault state, so the engine re-validates each event when it fires and
/// skips those that would leave the lambda fault model (crashing a machine
/// that is already down, exceeding the fault budget, or taking a group's
/// last operational replica). Recovery events that fire before failure
/// detection has expelled the machine are deferred, not dropped. Every
/// decision is appended to an applied-event log; `timeline()` is the run's
/// replay fingerprint — two runs of the same schedule against the same
/// workload must produce identical timelines.
class ChaosEngine {
 public:
  ChaosEngine(Cluster& cluster, ChaosSchedule schedule);

  /// Schedule every event onto the cluster's simulator. Idempotent.
  void start();

  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t recoveries() const { return recoveries_; }
  std::uint64_t windows() const { return windows_; }
  std::uint64_t skipped() const { return skipped_; }
  std::uint64_t deferred() const { return deferred_; }
  std::uint64_t disk_faults() const { return disk_faults_; }
  std::uint64_t partitions() const { return partitions_; }
  const ChaosSchedule& schedule() const { return schedule_; }
  /// Applied-event log, one line per decision, in virtual-time order.
  const std::vector<std::string>& log() const { return log_; }
  /// The log joined with newlines: the replay fingerprint.
  std::string timeline() const;

 private:
  void apply(std::size_t index);
  void fire_recover(std::uint32_t machine);
  void note(sim::SimTime at, const std::string& line);

  Cluster& cluster_;
  ChaosSchedule schedule_;
  bool started_ = false;
  std::vector<std::string> log_;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t deferred_ = 0;
  std::uint64_t disk_faults_ = 0;
  std::uint64_t partitions_ = 0;
};

}  // namespace paso
