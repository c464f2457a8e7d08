// Per-machine durable persistence: WAL + checkpoints over a SimDisk.
//
// One PersistenceManager per machine, owned by the Cluster so it survives
// crash_reset (the disk outlives the memory). For each class the machine
// replicates it keeps two files:
//
//   c<cls>.log   framed WAL records (persist/wal.hpp), lsn-contiguous
//   c<cls>.ckpt  a sealed CheckpointImage (persist/checkpoint.hpp)
//
// The log covers exactly the lsn range (checkpoint.lsn, durable_lsn]: a
// checkpoint compacts the log behind it, which is also the log-compaction
// policy — a joiner whose durable position predates the donor's compaction
// horizon cannot be served a delta and falls back to a full transfer.
//
// All methods return the disk cost they incurred so the caller can land it
// where it belongs (gcast processing time on the append path, an explicit
// ledger charge + recovery delay on the replay path). The manager never
// touches the ledger or the simulator itself, which keeps it trivially
// deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "paso/classes.hpp"
#include "paso/messages.hpp"
#include "paso/wire.hpp"
#include "persist/checkpoint.hpp"
#include "persist/disk.hpp"
#include "persist/wal.hpp"
#include "sim/simulator.hpp"

namespace paso::persist {

struct PersistenceConfig {
  /// Master switch. Off by default: the disabled stack performs no disk
  /// I/O, schedules no events and adds no bytes to state blobs, so runs
  /// reproduce the non-persistent baseline exactly.
  bool enabled = false;
  DiskCostModel disk{};
  /// Checkpoint when the class log reaches this many bytes...
  std::size_t checkpoint_every_bytes = 64 * 1024;
  /// ...or when this much virtual time has passed since the last checkpoint
  /// (checked lazily on the next applied op — no standing timers, so an
  /// idle simulator still drains). kNever disables the age trigger.
  sim::SimTime checkpoint_interval = sim::kNever;
};

/// What recovery found on disk for one class.
struct RecoveredClass {
  std::optional<CheckpointImage> checkpoint;  ///< absent or corrupt -> none
  std::vector<WalRecord> tail;  ///< lsn-contiguous records past the checkpoint
  Cost cost = 0;                ///< disk read (and repair-truncate) cost
  bool corruption_detected = false;
};

/// Running totals for diagnostics (`persist-stats` in the REPL, tests).
/// These survive crashes — they describe the disk, not the memory.
struct PersistStats {
  std::uint64_t appends = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t resets = 0;
  std::uint64_t replays = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t corruptions_detected = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint64_t delta_captures = 0;
  std::uint64_t delta_refusals = 0;
  std::uint64_t faults_injected = 0;
};

class PersistenceManager {
 public:
  enum class FaultKind { kTornTail, kCorruptRecord, kLostFsync };

  PersistenceManager(MachineId self, const Schema& schema,
                     PersistenceConfig config);

  bool enabled() const { return config_.enabled; }
  const PersistenceConfig& config() const { return config_; }
  MachineId self() const { return self_; }

  /// Cluster-scoped counters (persist.appends etc.). Optional.
  void set_obs(obs::Obs o) { obs_ = o; }

  /// Disk-space accounting hook, invoked after every durable write (and
  /// after truncations/erasures, with `written` = 0) with the bytes just
  /// written and this machine's current bytes-on-disk total. The cluster
  /// wires it to the CostLedger and the persist.bytes_on_disk gauge; going
  /// through a hook keeps the manager itself ledger-free (see the file
  /// comment) and trivially deterministic.
  using DiskAccounting =
      std::function<void(std::uint64_t written, std::uint64_t on_disk)>;
  void set_disk_accounting(DiskAccounting hook) {
    disk_accounting_ = std::move(hook);
  }

  /// Total durable bytes currently on this machine's disk (logs +
  /// checkpoints across all classes): the disk's running total, O(1).
  std::uint64_t bytes_on_disk() const { return disk_.total_bytes(); }

  // --- append path ----------------------------------------------------------
  /// Append one applied operation at `lsn`: a ServerMessage, or a StoreMsg
  /// or RemoveMsg encoded where it lies. Returns the disk cost (0 when
  /// disabled).
  template <typename Message>
  Cost log_op(ClassId cls, std::uint64_t lsn, const Message& op) {
    if (!config_.enabled) return 0;
    return append_record(cls, {lsn, wire::encode_message(op)});
  }

  /// Whether the checkpoint policy (bytes-since-last or age) has tripped.
  bool checkpoint_due(ClassId cls, sim::SimTime now) const;

  /// Seal a checkpoint image under the class's next epoch and compact the
  /// log behind it. The image is only read — a live class's objects where
  /// they lie in its store — and the sealed buffer moves onto the disk.
  Cost write_checkpoint(ClassId cls, const CheckpointImage& image,
                        sim::SimTime now);

  /// Full-transfer install: the in-memory state is replaced wholesale by
  /// `image`, so the old log no longer describes it. Writes a fresh
  /// checkpoint and truncates the log to empty.
  Cost reset_class(ClassId cls, const CheckpointImage& image,
                   sim::SimTime now);

  /// Voluntary leave: erase the class's durable files (the paper's "servers
  /// should erase all information when leaving a group", extended to disk).
  void erase_class(ClassId cls);

  // --- recovery path --------------------------------------------------------
  /// Classes with any durable bytes on this disk.
  std::vector<ClassId> durable_classes() const;

  /// Read and validate the class's checkpoint + log. Contiguity is enforced:
  /// the tail starts at checkpoint.lsn + 1 and each record increments the
  /// lsn; scanning stops (and the file is repair-truncated) at the first
  /// checksum failure, torn record or lsn gap. nullopt when nothing durable
  /// survives validation.
  std::optional<RecoveredClass> recover(ClassId cls);

  // --- delta donor ----------------------------------------------------------
  /// The position a joiner advertises in g-join: checkpoint epoch + last
  /// durable lsn. Meaningful only right after recover() or on a live server
  /// (the mirrors track disk writes).
  std::uint64_t checkpoint_epoch(ClassId cls) const;
  std::uint64_t durable_lsn(ClassId cls) const;

  /// Donor side: the validated log suffix with lsn > after_lsn, or nullopt
  /// when the log cannot serve it (compacted past after_lsn, corrupt, or
  /// after_lsn ahead of the log). `cost` accumulates the disk read.
  std::optional<std::vector<WalRecord>> capture_suffix(ClassId cls,
                                                       std::uint64_t after_lsn,
                                                       Cost* cost);

  /// The compaction horizon: the retained log starts just past this lsn, so
  /// a delta can be served to any joiner at position >= checkpoint_lsn.
  /// GroupService uses it as the donor-selection key (prefer the member
  /// whose log reaches furthest back).
  std::uint64_t checkpoint_lsn(ClassId cls) const;

  // --- chaos ----------------------------------------------------------------
  /// Deterministically damage one class's durable files. Returns a
  /// human-readable description of what was done, or nullopt when there was
  /// nothing to damage (the chaos engine logs a skip).
  std::optional<std::string> inject_fault(FaultKind kind, std::uint64_t salt);

  // --- diagnostics ----------------------------------------------------------
  const PersistStats& stats() const { return stats_; }
  SimDisk& disk() { return disk_; }
  std::size_t log_bytes(ClassId cls) const;
  std::size_t checkpoint_bytes_on_disk(ClassId cls) const;

 private:
  /// Durable-position mirrors, kept in sync with disk writes. After injected
  /// corruption they may overstate the log; every read path re-validates
  /// from the bytes, so mirrors are an optimization, never an authority.
  struct ClassDurable {
    std::uint64_t epoch = 0;
    std::uint64_t checkpoint_lsn = 0;  ///< log base: records start past this
    std::uint64_t durable_lsn = 0;
    sim::SimTime last_checkpoint_at = 0;
  };

  /// A class's two file names, built once per class.
  struct ClassFiles {
    std::string log;
    std::string ckpt;
  };

  const std::string& log_file(ClassId cls) const {
    return files_[cls.value].log;
  }
  const std::string& ckpt_file(ClassId cls) const {
    return files_[cls.value].ckpt;
  }
  Cost append_record(ClassId cls, const WalRecord& record);
  std::vector<FieldType> signature_of(ClassId cls) const;
  ClassDurable& durable(ClassId cls);
  void count(const char* name, double amount = 1);
  void account_disk(std::uint64_t written);

  MachineId self_;
  const Schema& schema_;
  PersistenceConfig config_;
  SimDisk disk_;
  std::vector<ClassFiles> files_;
  obs::Obs obs_;
  std::unordered_map<std::uint32_t, ClassDurable> classes_;
  PersistStats stats_;
  DiskAccounting disk_accounting_;
};

const char* persist_fault_name(PersistenceManager::FaultKind kind);

}  // namespace paso::persist
