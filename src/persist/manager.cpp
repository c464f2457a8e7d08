#include "persist/manager.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"
#include "paso/wire.hpp"

namespace paso::persist {

const char* persist_fault_name(PersistenceManager::FaultKind kind) {
  switch (kind) {
    case PersistenceManager::FaultKind::kTornTail:
      return "torn-tail";
    case PersistenceManager::FaultKind::kCorruptRecord:
      return "corrupt-record";
    case PersistenceManager::FaultKind::kLostFsync:
      return "lost-fsync";
  }
  return "?";
}

PersistenceManager::PersistenceManager(MachineId self, const Schema& schema,
                                       PersistenceConfig config)
    : self_(self), schema_(schema), config_(config), disk_(config.disk) {
  files_.reserve(schema_.class_count());
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    const std::string stem = "c" + std::to_string(c);
    files_.push_back({stem + ".log", stem + ".ckpt"});
  }
}

std::vector<FieldType> PersistenceManager::signature_of(ClassId cls) const {
  return schema_.specs()[schema_.locate(cls).first].signature;
}

PersistenceManager::ClassDurable& PersistenceManager::durable(ClassId cls) {
  return classes_[cls.value];
}

void PersistenceManager::count(const char* name, double amount) {
  if (obs_.metrics != nullptr) obs_.metrics->counter(name).inc(amount);
}

void PersistenceManager::account_disk(std::uint64_t written) {
  if (disk_accounting_) disk_accounting_(written, bytes_on_disk());
}

// ---------------------------------------------------------------------------
// append path

Cost PersistenceManager::append_record(ClassId cls, const WalRecord& record) {
  const std::vector<std::uint8_t> framed = encode_record(record);
  const Cost cost = disk_.append(log_file(cls), framed);
  durable(cls).durable_lsn = record.lsn;
  ++stats_.appends;
  stats_.append_bytes += framed.size();
  count("persist.appends");
  count("persist.append_bytes", static_cast<double>(framed.size()));
  account_disk(framed.size());
  return cost;
}

bool PersistenceManager::checkpoint_due(ClassId cls, sim::SimTime now) const {
  if (!config_.enabled) return false;
  const std::size_t log_size = disk_.size(log_file(cls));
  if (log_size == 0) return false;
  if (log_size >= config_.checkpoint_every_bytes) return true;
  if (config_.checkpoint_interval >= sim::kNever) return false;
  auto it = classes_.find(cls.value);
  const sim::SimTime last =
      it == classes_.end() ? 0 : it->second.last_checkpoint_at;
  return now - last >= config_.checkpoint_interval;
}

Cost PersistenceManager::write_checkpoint(ClassId cls,
                                          const CheckpointImage& image,
                                          sim::SimTime now) {
  if (!config_.enabled) return 0;
  ClassDurable& d = durable(cls);
  std::vector<std::uint8_t> sealed = encode_checkpoint(image, ++d.epoch);
  const std::size_t bytes = sealed.size();
  Cost cost = disk_.overwrite(ckpt_file(cls), std::move(sealed));
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += bytes;
  count("persist.checkpoints");
  count("persist.checkpoint_bytes", static_cast<double>(bytes));
  // The image covers everything up to image.lsn; on the apply path that is
  // the entire log, so compaction is a truncate-to-empty. (A scan-and-keep
  // of newer records would be needed only for images taken mid-stream,
  // which no caller produces.)
  cost += disk_.truncate(log_file(cls), 0);
  ++stats_.compactions;
  count("persist.compactions");
  d.checkpoint_lsn = image.lsn;
  d.durable_lsn = std::max(d.durable_lsn, image.lsn);
  d.last_checkpoint_at = now;
  // Accounted after compaction so on_disk reflects the post-checkpoint
  // footprint (image written, log behind it gone).
  account_disk(bytes);
  return cost;
}

Cost PersistenceManager::reset_class(ClassId cls,
                                     const CheckpointImage& image,
                                     sim::SimTime now) {
  if (!config_.enabled) return 0;
  // Drop the old log unconditionally: it describes a state line this
  // replica just abandoned for the donor's.
  Cost cost = disk_.truncate(log_file(cls), 0);
  disk_.remove(log_file(cls));
  ClassDurable& d = durable(cls);
  d.durable_lsn = image.lsn;
  cost += write_checkpoint(cls, image, now);
  ++stats_.resets;
  count("persist.resets");
  return cost;
}

void PersistenceManager::erase_class(ClassId cls) {
  disk_.remove(log_file(cls));
  disk_.remove(ckpt_file(cls));
  classes_.erase(cls.value);
  account_disk(0);
}

// ---------------------------------------------------------------------------
// recovery path

std::vector<ClassId> PersistenceManager::durable_classes() const {
  std::vector<ClassId> out;
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    const ClassId cls{c};
    if (disk_.size(log_file(cls)) > 0 || disk_.size(ckpt_file(cls)) > 0) {
      out.push_back(cls);
    }
  }
  return out;
}

std::optional<RecoveredClass> PersistenceManager::recover(ClassId cls) {
  if (!config_.enabled) return std::nullopt;
  RecoveredClass out;
  ++stats_.replays;
  count("persist.replays");

  std::vector<std::uint8_t> bytes;
  out.cost += disk_.read(ckpt_file(cls), bytes);
  std::uint64_t base_lsn = 0;
  std::uint64_t epoch = 0;
  if (!bytes.empty()) {
    out.checkpoint = decode_checkpoint(bytes, signature_of(cls), &epoch);
    if (out.checkpoint.has_value()) {
      base_lsn = out.checkpoint->lsn;
    } else {
      // A corrupt checkpoint poisons everything behind it: the log's base
      // is unknown, so local replay is impossible. Discard both files and
      // let the join fall back to a full transfer.
      out.corruption_detected = true;
      ++stats_.corruptions_detected;
      stats_.truncated_bytes += bytes.size() + disk_.size(log_file(cls));
      count("persist.corruptions");
      disk_.remove(ckpt_file(cls));
      disk_.remove(log_file(cls));
      classes_.erase(cls.value);
      account_disk(0);
      return std::nullopt;
    }
  }

  out.cost += disk_.read(log_file(cls), bytes);
  // Contiguity: replaying record lsn=k onto state at lsn=k-1 is the only
  // sound application. A gap (e.g. a lost-fsync hole) invalidates the
  // records past it even if their checksums hold, so the walk stops there
  // as it does at a torn or corrupt record.
  std::uint64_t expect = base_lsn + 1;
  std::vector<WalRecord> tail;
  const std::size_t keep_bytes = for_each_record(
      bytes, [&](std::uint64_t lsn, const std::uint8_t* payload,
                 std::size_t size) {
        if (lsn != expect) return false;
        tail.push_back({lsn, {payload, payload + size}});
        ++expect;
        return true;
      });
  if (keep_bytes < bytes.size()) {
    out.corruption_detected = true;
    ++stats_.corruptions_detected;
    stats_.truncated_bytes += bytes.size() - keep_bytes;
    count("persist.corruptions");
    count("persist.truncated_bytes",
          static_cast<double>(bytes.size() - keep_bytes));
    out.cost += disk_.truncate(log_file(cls), keep_bytes);
    account_disk(0);
  }
  out.tail = std::move(tail);
  stats_.replayed_records += out.tail.size();
  count("persist.replayed_records", static_cast<double>(out.tail.size()));

  if (!out.checkpoint.has_value() && out.tail.empty()) return std::nullopt;

  ClassDurable& d = durable(cls);
  d.epoch = epoch;
  d.checkpoint_lsn = base_lsn;
  d.durable_lsn = out.tail.empty() ? base_lsn : out.tail.back().lsn;
  return out;
}

// ---------------------------------------------------------------------------
// delta donor

std::uint64_t PersistenceManager::checkpoint_epoch(ClassId cls) const {
  auto it = classes_.find(cls.value);
  return it == classes_.end() ? 0 : it->second.epoch;
}

std::uint64_t PersistenceManager::durable_lsn(ClassId cls) const {
  auto it = classes_.find(cls.value);
  return it == classes_.end() ? 0 : it->second.durable_lsn;
}

std::uint64_t PersistenceManager::checkpoint_lsn(ClassId cls) const {
  auto it = classes_.find(cls.value);
  return it == classes_.end() ? 0 : it->second.checkpoint_lsn;
}

std::optional<std::vector<WalRecord>> PersistenceManager::capture_suffix(
    ClassId cls, std::uint64_t after_lsn, Cost* cost) {
  if (!config_.enabled) return std::nullopt;
  auto it = classes_.find(cls.value);
  if (it == classes_.end()) return std::nullopt;
  const ClassDurable& d = it->second;
  if (after_lsn < d.checkpoint_lsn || after_lsn > d.durable_lsn) {
    // Compacted past the joiner's position (too stale) or the joiner claims
    // a future we don't have: no delta.
    ++stats_.delta_refusals;
    count("persist.delta_refusals");
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes;
  const Cost read_cost = disk_.read(log_file(cls), bytes);
  if (cost != nullptr) *cost += read_cost;
  // Validate end to end: contiguous from the log base through our durable
  // lsn. Any damage (an injected fault we have not noticed yet) disqualifies
  // the delta; the caller falls back to a full transfer. Only the records
  // past the joiner's position are copied out.
  std::uint64_t expect = d.checkpoint_lsn + 1;
  bool contiguous = true;
  std::vector<WalRecord> suffix;
  const std::size_t valid_bytes = for_each_record(
      bytes, [&](std::uint64_t lsn, const std::uint8_t* payload,
                 std::size_t size) {
        contiguous = contiguous && lsn == expect;
        if (!contiguous) return true;  // refused; still check the rest
        if (lsn > after_lsn) {
          suffix.push_back({lsn, {payload, payload + size}});
        }
        ++expect;
        return true;
      });
  if (valid_bytes != bytes.size() || expect != d.durable_lsn + 1) {
    ++stats_.delta_refusals;
    count("persist.delta_refusals");
    return std::nullopt;
  }
  ++stats_.delta_captures;
  count("persist.delta_captures");
  return suffix;
}

// ---------------------------------------------------------------------------
// chaos

std::optional<std::string> PersistenceManager::inject_fault(
    FaultKind kind, std::uint64_t salt) {
  if (!config_.enabled) return std::nullopt;
  // Deterministic target selection: the salt picks among classes that have
  // log bytes to damage, in class-id order.
  std::vector<ClassId> targets;
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    if (disk_.size(log_file(ClassId{c})) > 0) targets.push_back(ClassId{c});
  }
  if (targets.empty()) return std::nullopt;
  const ClassId cls = targets[salt % targets.size()];
  const std::string& file = log_file(cls);
  const std::string label = "c" + std::to_string(cls.value);
  bool did = false;
  std::string what;
  switch (kind) {
    case FaultKind::kTornTail: {
      const std::size_t n = 1 + salt % 24;
      did = disk_.chop(file, n);
      what = "torn tail -" + std::to_string(n) + "B " + label;
      break;
    }
    case FaultKind::kCorruptRecord:
      did = disk_.flip(file, salt);
      what = "corrupt byte @" + std::to_string(salt % disk_.size(file)) + " " +
             label;
      break;
    case FaultKind::kLostFsync: {
      // The last appended record never reached the platter: drop it whole
      // (plus any torn bytes already past it).
      const std::vector<std::uint8_t>* bytes = disk_.peek(file);
      std::size_t last = 0;
      const std::size_t valid_bytes = for_each_record(
          *bytes, [&last](std::uint64_t, const std::uint8_t*,
                          std::size_t size) {
            last = kWalFrameBytes + size;
            return true;
          });
      if (last > 0) {
        did = disk_.chop(file, (bytes->size() - valid_bytes) + last);
        what = "lost fsync (last record) " + label;
      }
      break;
    }
  }
  if (!did) return std::nullopt;
  ++stats_.faults_injected;
  count("persist.faults_injected");
  account_disk(0);
  return what;
}

// ---------------------------------------------------------------------------
// diagnostics

std::size_t PersistenceManager::log_bytes(ClassId cls) const {
  return disk_.size(log_file(cls));
}

std::size_t PersistenceManager::checkpoint_bytes_on_disk(ClassId cls) const {
  return disk_.size(ckpt_file(cls));
}

}  // namespace paso::persist
