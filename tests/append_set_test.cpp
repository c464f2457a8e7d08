// AppendSet: the grow-only, insertion-ordered set behind the memory server's
// applied-insert identities. Duplicates must be refused, and keys() must
// come out in insertion order through every growth step, on copies, after
// assign and after clear; a seeded random workload is checked against
// std::unordered_set plus an order vector.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/append_set.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace paso {
namespace {

ObjectId id(std::uint32_t machine, std::uint64_t sequence) {
  return ObjectId{ProcessId{MachineId{machine}, 0}, sequence};
}

/// Every key hashes alike: one probe chain holds the whole index.
struct OneHome {
  std::size_t operator()(std::uint64_t) const { return 0; }
};

TEST(AppendSetTest, DuplicateInsertIsRefused) {
  AppendSet<ObjectId> set;
  EXPECT_TRUE(set.insert(id(1, 7)));
  EXPECT_TRUE(set.insert(id(2, 7)));
  EXPECT_FALSE(set.insert(id(1, 7))) << "a duplicate key must not insert";
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.keys(), (std::vector<ObjectId>{id(1, 7), id(2, 7)}));

  // Same on a single probe chain, where every lookup walks past the others.
  AppendSet<std::uint64_t, OneHome> chained;
  for (std::uint64_t k = 0; k < 5; ++k) EXPECT_TRUE(chained.insert(k));
  for (std::uint64_t k = 0; k < 5; ++k) EXPECT_FALSE(chained.insert(k));
  EXPECT_TRUE(chained.insert(9));
  EXPECT_EQ(chained.keys(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 9}));
}

TEST(AppendSetTest, InsertionOrderSurvivesEveryGrowthStep) {
  AppendSet<std::uint64_t> set;
  EXPECT_EQ(set.capacity(), 0u);
  std::vector<std::uint64_t> order;
  std::size_t last_capacity = 0;
  int growths = 0;
  // Keys in a scrambled order, so slot order and insertion order differ.
  for (std::uint64_t n = 0; n < 3000; ++n) {
    const std::uint64_t key = (n * 7919) % 4099;
    ASSERT_TRUE(set.insert(key)) << n;
    order.push_back(key);
    if (set.capacity() != last_capacity) {
      // Past 8 keys, then at every doubling: a power of two, at most 3/4
      // full, and nothing moved in keys().
      ++growths;
      last_capacity = set.capacity();
      EXPECT_EQ(last_capacity & (last_capacity - 1), 0u);
      EXPECT_LE(4 * set.size(), 3 * last_capacity);
      ASSERT_EQ(set.keys(), order) << "after growing to " << last_capacity;
    }
  }
  EXPECT_GE(growths, 10);
  EXPECT_EQ(set.keys(), order);
  for (const std::uint64_t key : order) ASSERT_FALSE(set.insert(key)) << key;

  // reserve() sizes up front: no growth while filling to the reservation.
  AppendSet<std::uint64_t> reserved;
  reserved.reserve(1000);
  const std::size_t capacity = reserved.capacity();
  EXPECT_GE(3 * capacity, 4 * 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) reserved.insert(k);
  EXPECT_EQ(reserved.capacity(), capacity);
}

TEST(AppendSetTest, CopiesAreIndependent) {
  AppendSet<ObjectId> original;
  for (std::uint64_t s = 0; s < 20; ++s) original.insert(id(1, s));
  AppendSet<ObjectId> copy = original;
  EXPECT_TRUE(original.insert(id(5, 0)));
  EXPECT_TRUE(copy.insert(id(6, 0)));
  std::vector<ObjectId> shared;
  for (std::uint64_t s = 0; s < 20; ++s) shared.push_back(id(1, s));
  std::vector<ObjectId> expected = shared;
  expected.push_back(id(5, 0));
  EXPECT_EQ(original.keys(), expected);
  expected.back() = id(6, 0);
  EXPECT_EQ(copy.keys(), expected);
  // Each index answers for its own keys only.
  EXPECT_TRUE(copy.insert(id(5, 0)));
  EXPECT_FALSE(original.insert(id(5, 0)));
  copy.clear();
  EXPECT_EQ(copy.size(), 0u);
  EXPECT_EQ(original.size(), 21u);
  EXPECT_FALSE(original.insert(id(1, 3)));
}

TEST(AppendSetTest, AssignTakesTheVectorsOrder) {
  AppendSet<ObjectId> set;
  set.insert(id(9, 9));
  const std::vector<ObjectId> keys = {id(3, 1), id(1, 2), id(2, 0), id(3, 0),
                                      id(1, 1), id(0, 5), id(4, 4), id(2, 2),
                                      id(7, 1), id(1, 0)};
  set.assign(keys);
  EXPECT_EQ(set.keys(), keys);
  for (const ObjectId& key : keys) EXPECT_FALSE(set.insert(key));
  EXPECT_TRUE(set.insert(id(9, 9))) << "assign replaces the old contents";
  EXPECT_EQ(set.keys().back(), id(9, 9));
  // Sized once for the whole vector.
  AppendSet<ObjectId> big;
  std::vector<ObjectId> many;
  for (std::uint64_t s = 0; s < 700; ++s) many.push_back(id(2, 700 - s));
  big.assign(many);
  EXPECT_EQ(big.keys(), many);
  EXPECT_LE(4 * big.size(), 3 * big.capacity());
  // A repeated key keeps its first position.
  big.assign({id(1, 1), id(1, 2), id(1, 1)});
  EXPECT_EQ(big.keys(), (std::vector<ObjectId>{id(1, 1), id(1, 2)}));
  big.assign({});
  EXPECT_EQ(big.size(), 0u);
}

TEST(AppendSetTest, ClearEmptiesAndTheSetRefills) {
  AppendSet<std::uint64_t> set;
  for (std::uint64_t k = 0; k < 50; ++k) set.insert(k);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.keys().empty());
  for (std::uint64_t k = 50; k-- > 0;) EXPECT_TRUE(set.insert(k)) << k;
  EXPECT_EQ(set.size(), 50u);
  EXPECT_EQ(set.keys().front(), 49u);
  EXPECT_EQ(set.keys().back(), 0u);
}

TEST(AppendSetTest, MatchesUnorderedSetUnderRandomOps) {
  // A small key space (6000 keys) keeps duplicates frequent; occasional
  // clears and copies restart the comparison from a fresh or copied set.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    AppendSet<ObjectId> set;
    std::unordered_set<ObjectId> spec;
    std::vector<ObjectId> order;
    for (int op = 0; op < 10000; ++op) {
      const ObjectId key = id(static_cast<std::uint32_t>(rng.index(4)),
                              rng.index(1500));
      const double roll = rng.uniform01();
      if (roll < 0.998) {
        const bool inserted = spec.insert(key).second;
        if (inserted) order.push_back(key);
        ASSERT_EQ(set.insert(key), inserted) << "seed " << seed << " op " << op;
      } else if (roll < 0.999) {
        set.clear();
        spec.clear();
        order.clear();
      } else {
        set = AppendSet<ObjectId>(set);
      }
      ASSERT_EQ(set.size(), spec.size());
    }
    EXPECT_EQ(set.keys(), order) << "seed " << seed;
  }
}

}  // namespace
}  // namespace paso
