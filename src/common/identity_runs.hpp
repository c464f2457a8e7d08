// IdentityRuns: a set of object identities kept as runs of sequences.
//
// An identity is (creator, sequence). The set is a vector of disjoint runs
// [lo, hi] of sequences per creator, sorted by (creator, lo), with no two
// runs of one creator touching (a run ending at s and one starting at s + 1
// are one run). That form is canonical: two sets holding the same
// identities hold the same vector, whatever order the identities arrived
// in, so replicas with equal state write byte-identical images. When a
// creator numbers its identities consecutively, as the runtime does per
// (process, class), its identities form one run however many there are,
// and the set costs O(creators + gaps) rather than O(identities).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace paso {

/// The sequences lo..hi (inclusive) of one creator.
struct IdentityRun {
  ProcessId creator;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const IdentityRun&, const IdentityRun&) = default;
};

class IdentityRuns {
 public:
  /// The number of runs (not of identities).
  std::size_t size() const { return runs_.size(); }
  /// Every run, in (creator, lo) order.
  const std::vector<IdentityRun>& runs() const { return runs_; }

  /// Adds `id` unless it is present; false for a duplicate. An identity
  /// that extends its creator's run (the usual, in-order case) widens it in
  /// place; one that closes a gap merges the two runs around it.
  bool insert(const ObjectId& id) {
    const auto next = std::upper_bound(runs_.begin(), runs_.end(), id, before);
    IdentityRun* prev = next == runs_.begin() ? nullptr : &*(next - 1);
    if (prev != nullptr && prev->creator != id.creator) prev = nullptr;
    if (prev != nullptr && id.sequence <= prev->hi) return false;
    // prev->hi < sequence < next->lo here, so neither +1 overflows.
    const bool joins_prev = prev != nullptr && prev->hi + 1 == id.sequence;
    const bool joins_next = next != runs_.end() &&
                            next->creator == id.creator &&
                            id.sequence + 1 == next->lo;
    if (joins_prev && joins_next) {
      prev->hi = next->hi;
      runs_.erase(next);
    } else if (joins_prev) {
      prev->hi = id.sequence;
    } else if (joins_next) {
      next->lo = id.sequence;
    } else {
      runs_.insert(next, IdentityRun{id.creator, id.sequence, id.sequence});
    }
    return true;
  }

  /// Replaces the contents with `runs` if they are canonical; otherwise
  /// leaves the set as it was and returns false.
  bool assign(std::vector<IdentityRun> runs) {
    if (!canonical(runs)) return false;
    runs_ = std::move(runs);
    return true;
  }

 private:
  /// Whether `runs` is in canonical form: each run has lo <= hi, runs are
  /// sorted by (creator, lo), and a creator's runs neither overlap nor
  /// touch.
  static bool canonical(const std::vector<IdentityRun>& runs) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].lo > runs[i].hi) return false;
      if (i == 0) continue;
      const IdentityRun& a = runs[i - 1];
      const IdentityRun& b = runs[i];
      if (b.creator < a.creator) return false;
      if (b.creator == a.creator && (b.lo <= a.hi || b.lo - a.hi == 1)) {
        return false;
      }
    }
    return true;
  }

  /// Whether `id` sorts before `run`'s start in (creator, lo) order.
  static bool before(const ObjectId& id, const IdentityRun& run) {
    return std::tie(id.creator, id.sequence) < std::tie(run.creator, run.lo);
  }

  std::vector<IdentityRun> runs_;
};

}  // namespace paso
