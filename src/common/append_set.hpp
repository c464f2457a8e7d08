// AppendSet: a grow-only set that keeps its keys in insertion order.
//
// The keys live in one dense vector, in the order they were inserted. An
// open-addressing index of uint32_t positions (linear probing, FlatTable's
// mixer and 3/4 maximum load) answers membership. The bits a position does
// not need hold a tag from the key's hash, so a probe that passes another
// key's slot rarely has to read that key from the vector. Nothing is ever
// erased, so the index needs neither tombstones nor backward shift. Two
// sets fed the same keys in the same order hold the same sequence, whatever
// their growth history: keys() is a replica-consistent order where
// FlatTable's slot order is not. Copying a set copies one vector of keys
// and one array of positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/flat_table.hpp"
#include "common/require.hpp"

namespace paso {

template <typename Key, typename Hash = std::hash<Key>>
class AppendSet {
 public:
  std::size_t size() const { return keys_.size(); }
  /// Index slot count (0 or a power of two); exposed for tests.
  std::size_t capacity() const { return index_.size(); }
  /// Every key, in insertion order.
  const std::vector<Key>& keys() const { return keys_; }

  void clear() {
    keys_.clear();
    index_.clear();
  }

  /// Room for `n` keys without growing.
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * kMaxLoadNum < n * kMaxLoadDen) want *= 2;
    if (want > index_.size()) rehash(want);
  }

  /// Appends `key` unless it is present; false for a duplicate.
  bool insert(const Key& key) {
    if ((keys_.size() + 1) * kMaxLoadDen > index_.size() * kMaxLoadNum) {
      rehash(index_.empty() ? kMinCapacity : 2 * index_.size());
    }
    const std::uint64_t h = hash_mix(Hash{}(key));
    const std::uint32_t tag = tag_of(h);
    std::size_t i = static_cast<std::size_t>(h) & (index_.size() - 1);
    for (; index_[i] != 0; i = next(i)) {
      if ((index_[i] & ~position_mask_) == tag &&
          keys_[(index_[i] & position_mask_) - 1] == key) {
        return false;
      }
    }
    keys_.push_back(key);
    index_[i] = tag | static_cast<std::uint32_t>(keys_.size());
    return true;
  }

  /// Replaces the contents with `keys`, in their order (a repeated key keeps
  /// its first position).
  void assign(const std::vector<Key>& keys) {
    clear();
    reserve(keys.size());
    for (const Key& key : keys) insert(key);
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;
  static constexpr std::size_t kMaxLoadNum = 3;
  static constexpr std::size_t kMaxLoadDen = 4;

  std::size_t next(std::size_t i) const {
    return (i + 1) & (index_.size() - 1);
  }
  /// The hash's high bits that lie above the position field.
  std::uint32_t tag_of(std::uint64_t h) const {
    return static_cast<std::uint32_t>(h >> 32) & ~position_mask_;
  }

  void rehash(std::size_t capacity) {
    // The key vector grows in step with the index, to the most keys the new
    // index admits, so the two never outgrow each other.
    const std::size_t max_keys = capacity * kMaxLoadNum / kMaxLoadDen;
    PASO_REQUIRE(max_keys < std::numeric_limits<std::uint32_t>::max(),
                 "AppendSet positions overflow uint32_t");
    position_mask_ = 1;
    while (position_mask_ < max_keys) position_mask_ = 2 * position_mask_ + 1;
    keys_.reserve(max_keys);
    index_.assign(capacity, 0);
    for (std::size_t pos = 0; pos < keys_.size(); ++pos) {
      const std::uint64_t h = hash_mix(Hash{}(keys_[pos]));
      std::size_t i = static_cast<std::size_t>(h) & (capacity - 1);
      while (index_[i] != 0) i = next(i);
      index_[i] = tag_of(h) | static_cast<std::uint32_t>(pos + 1);
    }
  }

  std::vector<Key> keys_;
  /// Per slot, 1 + the key's position in keys_ under position_mask_ and the
  /// key's tag above it, so a probe reads keys_ only when the tags agree;
  /// 0 marks an empty slot.
  std::vector<std::uint32_t> index_;
  std::uint32_t position_mask_ = 0;
};

}  // namespace paso
