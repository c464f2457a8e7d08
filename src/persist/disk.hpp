// A simulated per-machine disk.
//
// The simulator has no real filesystem; SimDisk models one as named byte
// files in memory, with a seek+byte cost model mirroring the bus's
// alpha+beta*|m| shape. Crucially, a SimDisk is owned *outside* the memory
// server (by the Cluster), so a crash that erases the server's memory leaves
// the disk intact — that persistence gap is the whole point of the WAL.
//
// Every I/O returns the model cost it incurred; the caller decides where the
// cost lands (gcast processing time on the append path, explicit ledger
// charges on the recovery path), so disk latency is charged exactly once.
// Fault-injection entry points (chop / flip) mutate bytes without cost:
// corruption is not work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cost.hpp"

namespace paso::persist {

/// Disk latency model: cost(io) = seek + byte * |io|. Like the bus's
/// CostModel this is virtual time, charged through the CostLedger by the
/// layer that performs the I/O.
struct DiskCostModel {
  Cost seek = 20.0;
  Cost byte = 0.05;

  Cost io(std::size_t bytes) const {
    return seek + byte * static_cast<Cost>(bytes);
  }
};

class SimDisk {
 public:
  explicit SimDisk(DiskCostModel model = {}) : model_(model) {}

  /// Append bytes to a file (created on first write). One I/O.
  Cost append(const std::string& file, const std::vector<std::uint8_t>& bytes);

  /// Replace a file's contents atomically. One I/O.
  Cost overwrite(const std::string& file, std::vector<std::uint8_t> bytes);

  /// Read a whole file (empty if absent). One I/O when the file exists.
  Cost read(const std::string& file, std::vector<std::uint8_t>& out);

  /// Shrink a file to `size` bytes (no-op if already smaller). Seek only.
  Cost truncate(const std::string& file, std::size_t size);

  /// Delete a file. Free (space reclamation is not on the latency path).
  void remove(const std::string& file);

  bool exists(const std::string& file) const { return files_.contains(file); }
  std::size_t size(const std::string& file) const;
  /// Sum of every file's size, kept current by each write, truncate,
  /// remove and fault: O(1).
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Uncharged access to a file's bytes (nullptr if absent). For the fault
  /// plane and tests only — real I/O paths go through read().
  const std::vector<std::uint8_t>* peek(const std::string& file) const;

  // --- fault plane (chaos): silent bit-rot, no cost, no stats ---------------
  /// Drop the last `n` bytes of a file (a torn tail write). False if the
  /// file has no bytes to lose.
  bool chop(const std::string& file, std::size_t n);
  /// Flip bits in the byte at `offset % size` (a corrupt sector). False if
  /// the file is empty.
  bool flip(const std::string& file, std::size_t offset);

  // --- accounting -----------------------------------------------------------
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  Cost total_cost() const { return total_cost_; }
  const DiskCostModel& model() const { return model_; }

 private:
  Cost charge_write(std::size_t bytes);
  Cost charge_read(std::size_t bytes);

  DiskCostModel model_;
  std::unordered_map<std::string, std::vector<std::uint8_t>> files_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  Cost total_cost_ = 0;
};

}  // namespace paso::persist
