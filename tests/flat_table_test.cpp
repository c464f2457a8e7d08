// FlatTable: the open-addressing table behind the stores' identity and
// bucket maps. Collisions are forced with degenerate hashes so probe chains,
// wrap-around and backward-shift erase are exercised on purpose, then a
// seeded random workload is checked against std::unordered_map.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_table.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace paso {
namespace {

/// Every key hashes alike: one probe chain holds the whole table.
struct OneHome {
  std::size_t operator()(std::uint64_t) const { return 0; }
};

/// Two homes, interleaving two chains.
struct TwoHomes {
  std::size_t operator()(std::uint64_t key) const { return key % 2; }
};

TEST(FlatTableTest, CollidingKeysAreAllFound) {
  FlatTable<std::uint64_t, std::uint64_t, OneHome> table;
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(table.emplace(k, 10 * k).second);
  }
  EXPECT_FALSE(table.emplace(3, 99).second)
      << "a duplicate key must not insert";
  EXPECT_EQ(table.size(), 5u);
  for (std::uint64_t k = 0; k < 5; ++k) {
    ASSERT_NE(table.find(k), nullptr) << k;
    EXPECT_EQ(*table.find(k), 10 * k);
  }
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_FALSE(table.erase(7));
}

TEST(FlatTableTest, BackwardShiftEraseFromTheMiddleOfAChain) {
  // One chain of six keys (it wraps around the 8-slot array wherever its
  // home lies). Erasing each position in turn must leave every other key
  // reachable: the keys past the hole are shifted back into it.
  for (std::uint64_t victim = 0; victim < 6; ++victim) {
    FlatTable<std::uint64_t, std::uint64_t, OneHome> table;
    for (std::uint64_t k = 0; k < 6; ++k) table.emplace(k, k + 100);
    ASSERT_EQ(table.capacity(), 8u);
    ASSERT_TRUE(table.erase(victim));
    EXPECT_EQ(table.size(), 5u);
    EXPECT_EQ(table.find(victim), nullptr);
    for (std::uint64_t k = 0; k < 6; ++k) {
      if (k == victim) continue;
      ASSERT_NE(table.find(k), nullptr)
          << "lost " << k << " erasing " << victim;
      EXPECT_EQ(*table.find(k), k + 100);
    }
    // The hole is reusable and the table stays consistent.
    EXPECT_TRUE(table.emplace(victim, 7).second);
    EXPECT_EQ(*table.find(victim), 7u);
  }
}

TEST(FlatTableTest, InterleavedChainsSurviveErase) {
  // Two chains share one run of slots: erasing from one must not pull a
  // key of the other chain in front of its own home.
  FlatTable<std::uint64_t, std::uint64_t, TwoHomes> table;
  for (std::uint64_t k = 0; k < 10; ++k) table.emplace(k, k);
  for (std::uint64_t k = 0; k < 10; k += 3) ASSERT_TRUE(table.erase(k));
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(table.find(k) != nullptr, k % 3 != 0) << k;
  }
}

TEST(FlatTableTest, GrowsAndKeepsEveryKey) {
  FlatTable<std::uint64_t, std::uint64_t> table;
  EXPECT_EQ(table.capacity(), 0u);
  for (std::uint64_t k = 0; k < 5000; ++k) table[k * 7919] = k;
  EXPECT_EQ(table.size(), 5000u);
  // A power of two, at most 3/4 full.
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  EXPECT_LE(4 * table.size(), 3 * table.capacity());
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(table.find(k * 7919), nullptr) << k;
    EXPECT_EQ(*table.find(k * 7919), k);
  }
  // reserve() sizes up front: no growth while filling to the reservation.
  FlatTable<std::uint64_t, std::uint64_t> reserved;
  reserved.reserve(1000);
  const std::size_t capacity = reserved.capacity();
  EXPECT_GE(3 * capacity, 4 * 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) reserved.emplace(k, k);
  EXPECT_EQ(reserved.capacity(), capacity);
}

TEST(FlatTableTest, CopiesAreIndependent) {
  FlatTable<ObjectId, std::uint64_t> original;
  for (std::uint64_t s = 0; s < 20; ++s) {
    original.emplace(ObjectId{ProcessId{MachineId{1}, 2}, s}, s);
  }
  FlatTable<ObjectId, std::uint64_t> copy = original;
  original.erase(ObjectId{ProcessId{MachineId{1}, 2}, 3});
  original.emplace(ObjectId{ProcessId{MachineId{5}, 0}, 0});
  EXPECT_EQ(copy.size(), 20u);
  EXPECT_NE(copy.find(ObjectId{ProcessId{MachineId{1}, 2}, 3}), nullptr);
  EXPECT_EQ(copy.find(ObjectId{ProcessId{MachineId{5}, 0}, 0}), nullptr);
  EXPECT_EQ(original.find(ObjectId{ProcessId{MachineId{1}, 2}, 3}), nullptr);
  std::size_t visited = 0;
  copy.for_each([&visited](const ObjectId&, std::uint64_t) { ++visited; });
  EXPECT_EQ(visited, 20u);
  copy.clear();
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.find(ObjectId{ProcessId{MachineId{1}, 2}, 0}), nullptr);
  EXPECT_EQ(original.size(), 20u);
}

TEST(FlatTableTest, MatchesUnorderedMapUnderRandomOps) {
  // Values own heap memory so moves during backward shift and growth are
  // checked too. A small key space keeps chains long and hits frequent.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    FlatTable<std::uint64_t, std::string, TwoHomes> table;
    std::unordered_map<std::uint64_t, std::string> spec;
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t key = rng.index(64);
      if (rng.chance(0.55)) {
        const std::string value = std::to_string(op) + "-value";
        const bool inserted = table.emplace(key, value).second;
        EXPECT_EQ(inserted, spec.emplace(key, value).second);
      } else {
        EXPECT_EQ(table.erase(key), spec.erase(key) == 1);
      }
      ASSERT_EQ(table.size(), spec.size()) << "seed " << seed << " op " << op;
    }
    for (std::uint64_t key = 0; key < 64; ++key) {
      const std::string* found = table.find(key);
      const auto it = spec.find(key);
      ASSERT_EQ(found != nullptr, it != spec.end()) << key;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
  }
}

}  // namespace
}  // namespace paso
