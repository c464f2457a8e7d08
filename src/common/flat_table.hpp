// FlatTable: an open-addressing hash table in two contiguous arrays.
//
// Linear probing over a power-of-two slot array, with backward-shift erase
// (no tombstones: removing a key pulls the rest of its probe chain back, so
// lookups never walk dead slots). Keys are placed by a 64-bit mixer over
// std::hash, because std::hash of an integer is the identity and would pile
// sequential keys into one run of slots. Copying a table copies two vectors;
// destroying one frees two blocks (plus whatever the values own).
//
// Iteration order depends on the capacity and the insertion history, so it
// is not a replica-consistent order and must never reach an output.
// Any mutation may move slots, so pointers returned by find()/emplace() are
// valid only until the next insert or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace paso {

/// The murmur3 / splitmix64 finalizer: every input bit reaches every output
/// bit, so the low bits used as a slot index are well spread.
inline std::uint64_t hash_mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatTable {
 public:
  struct Slot {
    Key key{};
    Value value{};
  };

  FlatTable() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count (0 or a power of two); exposed for tests.
  std::size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    used_.clear();
    size_ = 0;
  }

  /// Room for `n` keys without growing.
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * kMaxLoadNum < n * kMaxLoadDen) want *= 2;
    if (want > slots_.size()) rehash(want);
  }

  const Value* find(const Key& key) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (!used_[i]) return nullptr;
      if (slots_[i].key == key) return &slots_[i].value;
    }
  }
  Value* find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Inserts (key, value) unless `key` is present. Returns the stored value
  /// and whether it was inserted.
  std::pair<Value*, bool> emplace(const Key& key, Value value = Value{}) {
    if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    std::size_t i = home(key);
    for (; used_[i]; i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    used_[i] = 1;
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value under `key`, default-inserted when absent.
  Value& operator[](const Key& key) { return *emplace(key).first; }

  /// Removes `key`; false when absent.
  bool erase(const Key& key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (;; hole = next(hole)) {
      if (!used_[hole]) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: walk the chain past the hole and pull back every key
    // whose home does not lie cyclically in (hole, i] — those keys probed
    // through the hole and would be cut off from their home by it.
    for (std::size_t i = next(hole); used_[i]; i = next(i)) {
      const std::size_t h = home(slots_[i].key);
      const bool stays =
          hole < i ? (hole < h && h <= i) : (hole < h || h <= i);
      if (stays) continue;
      slots_[hole] = std::move(slots_[i]);
      hole = i;
    }
    used_[hole] = 0;
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Calls visit(key, value) for every entry, in slot order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) visit(slots_[i].key, slots_[i].value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;
  // Grow past 3/4 full: linear probing's chains stay short below that.
  static constexpr std::size_t kMaxLoadNum = 3;
  static constexpr std::size_t kMaxLoadDen = 4;

  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(hash_mix(Hash{}(key))) &
           (slots_.size() - 1);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old_slots =
        std::exchange(slots_, std::vector<Slot>(capacity));
    std::vector<std::uint8_t> old_used =
        std::exchange(used_, std::vector<std::uint8_t>(capacity, 0));
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = home(old_slots[i].key);
      while (used_[j]) j = next(j);
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace paso
