// IdentityRuns: the memory server's applied-insert identities as runs of
// sequences per creator. Duplicates must be refused, in-order inserts must
// extend one run, gaps must split and later merge, and the runs must come
// out in one canonical form whatever the insert order, on copies, after
// assign and after a reset; a seeded random workload is checked against
// std::set.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/identity_runs.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace paso {
namespace {

ProcessId creator(std::uint32_t machine, std::uint32_t ordinal = 0) {
  return ProcessId{MachineId{machine}, ordinal};
}

ObjectId id(std::uint32_t machine, std::uint64_t sequence) {
  return ObjectId{creator(machine), sequence};
}

IdentityRun run(std::uint32_t machine, std::uint64_t lo, std::uint64_t hi) {
  return IdentityRun{creator(machine), lo, hi};
}

/// The canonical runs of `ids`: consecutive sequences of one creator merge.
std::vector<IdentityRun> runs_of(const std::set<ObjectId>& ids) {
  std::vector<IdentityRun> runs;
  for (const ObjectId& key : ids) {
    if (!runs.empty() && runs.back().creator == key.creator &&
        runs.back().hi + 1 == key.sequence) {
      runs.back().hi = key.sequence;
    } else {
      runs.push_back(IdentityRun{key.creator, key.sequence, key.sequence});
    }
  }
  return runs;
}

TEST(IdentityRunsTest, DuplicateInsertIsRefused) {
  IdentityRuns set;
  EXPECT_TRUE(set.insert(id(1, 7)));
  EXPECT_TRUE(set.insert(id(2, 7)));
  EXPECT_FALSE(set.insert(id(1, 7))) << "a duplicate key must not insert";
  EXPECT_EQ(set.runs(),
            (std::vector<IdentityRun>{run(1, 7, 7), run(2, 7, 7)}));
  // Inside a run, at either end, and for another ordinal of one machine.
  for (std::uint64_t s = 8; s < 20; ++s) EXPECT_TRUE(set.insert(id(1, s)));
  EXPECT_FALSE(set.insert(id(1, 7)));
  EXPECT_FALSE(set.insert(id(1, 13)));
  EXPECT_FALSE(set.insert(id(1, 19)));
  EXPECT_TRUE(set.insert(ObjectId{creator(1, 1), 13}));
  EXPECT_EQ(set.runs(),
            (std::vector<IdentityRun>{run(1, 7, 19), {creator(1, 1), 13, 13},
                                      run(2, 7, 7)}));
}

TEST(IdentityRunsTest, RunsAreCanonicalWhateverTheInsertOrder) {
  // In order: one run per creator, however many identities.
  IdentityRuns in_order;
  for (std::uint64_t s = 0; s < 3000; ++s) {
    ASSERT_TRUE(in_order.insert(id(4, s)));
    ASSERT_TRUE(in_order.insert(id(2, 100 + s)));
  }
  EXPECT_EQ(in_order.runs(),
            (std::vector<IdentityRun>{run(2, 100, 3099), run(4, 0, 2999)}));
  // A gap splits a creator's run; filling it merges the two again.
  IdentityRuns gapped;
  for (std::uint64_t s = 0; s < 10; ++s) {
    if (s != 4) ASSERT_TRUE(gapped.insert(id(1, s)));
  }
  EXPECT_EQ(gapped.runs(),
            (std::vector<IdentityRun>{run(1, 0, 3), run(1, 5, 9)}));
  ASSERT_TRUE(gapped.insert(id(1, 4)));
  EXPECT_EQ(gapped.runs(), (std::vector<IdentityRun>{run(1, 0, 9)}));
  // A scrambled order of the same identities ends in the same runs.
  IdentityRuns scrambled;
  for (std::uint64_t n = 0; n < 4099; ++n) {
    const std::uint64_t s = (n * 7919) % 4099;
    if (s < 3000) ASSERT_TRUE(scrambled.insert(id(4, s)));
    if (s < 3000) ASSERT_TRUE(scrambled.insert(id(2, 100 + s)));
  }
  EXPECT_EQ(scrambled.runs(), in_order.runs());
  // Sequences at the top of the range neither wrap nor merge with 0.
  IdentityRuns edge;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ASSERT_TRUE(edge.insert(id(1, kMax)));
  ASSERT_TRUE(edge.insert(id(1, 0)));
  ASSERT_TRUE(edge.insert(id(1, kMax - 1)));
  EXPECT_EQ(edge.runs(),
            (std::vector<IdentityRun>{run(1, 0, 0), run(1, kMax - 1, kMax)}));
  EXPECT_FALSE(edge.insert(id(1, kMax)));
}

TEST(IdentityRunsTest, CopiesAreIndependent) {
  IdentityRuns original;
  for (std::uint64_t s = 0; s < 20; ++s) original.insert(id(1, s));
  IdentityRuns copy = original;
  EXPECT_TRUE(original.insert(id(5, 0)));
  EXPECT_TRUE(copy.insert(id(6, 0)));
  EXPECT_EQ(original.runs(),
            (std::vector<IdentityRun>{run(1, 0, 19), run(5, 0, 0)}));
  EXPECT_EQ(copy.runs(),
            (std::vector<IdentityRun>{run(1, 0, 19), run(6, 0, 0)}));
  // Each copy answers for its own identities only.
  EXPECT_TRUE(copy.insert(id(5, 0)));
  EXPECT_FALSE(original.insert(id(5, 0)));
  copy = IdentityRuns{};
  EXPECT_EQ(copy.size(), 0u);
  EXPECT_EQ(original.size(), 2u);
  EXPECT_FALSE(original.insert(id(1, 3)));
}

TEST(IdentityRunsTest, AssignAcceptsOnlyCanonicalRuns) {
  IdentityRuns set;
  set.insert(id(9, 9));
  const std::vector<IdentityRun> runs = {run(0, 5, 5), run(1, 0, 2),
                                         run(1, 4, 8), run(3, 0, 1)};
  ASSERT_TRUE(set.assign(runs));
  EXPECT_EQ(set.runs(), runs);
  EXPECT_FALSE(set.insert(id(1, 6)));
  EXPECT_TRUE(set.insert(id(9, 9))) << "assign replaces the old contents";
  // Each kind of malformed table is refused and leaves the set unchanged.
  const std::vector<IdentityRun> bad[] = {
      {run(1, 4, 8), run(1, 0, 2)},   // unsorted within a creator
      {run(3, 0, 1), run(1, 0, 2)},   // creators out of order
      {run(1, 0, 4), run(1, 4, 8)},   // overlapping
      {run(1, 0, 3), run(1, 4, 8)},   // touching: not one run
      {run(1, 5, 4)},                 // inverted
  };
  for (const auto& table : bad) {
    EXPECT_FALSE(set.assign(table));
    EXPECT_EQ(set.size(), runs.size() + 1);
  }
  EXPECT_TRUE(set.assign({}));
  EXPECT_EQ(set.size(), 0u);
}

TEST(IdentityRunsTest, ClearEmptiesAndTheSetRefills) {
  IdentityRuns set;
  for (std::uint64_t s = 0; s < 50; s += 2) set.insert(id(1, s));
  EXPECT_EQ(set.size(), 25u);
  set = IdentityRuns{};
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.runs().empty());
  for (std::uint64_t s = 50; s-- > 0;) EXPECT_TRUE(set.insert(id(1, s))) << s;
  EXPECT_EQ(set.runs(), (std::vector<IdentityRun>{run(1, 0, 49)}));
}

TEST(IdentityRunsTest, MatchesStdSetUnderRandomOps) {
  // A small key space keeps duplicates, gaps and merges frequent; occasional
  // clears and copies restart the comparison from a fresh or copied set.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    IdentityRuns set;
    std::set<ObjectId> spec;
    for (int op = 0; op < 10000; ++op) {
      const ObjectId key = id(static_cast<std::uint32_t>(rng.index(4)),
                              rng.index(1500));
      const double roll = rng.uniform01();
      if (roll < 0.998) {
        const bool inserted = spec.insert(key).second;
        ASSERT_EQ(set.insert(key), inserted) << "seed " << seed << " op " << op;
      } else if (roll < 0.999) {
        set = IdentityRuns{};
        spec.clear();
      } else {
        set = IdentityRuns(set);
      }
    }
    EXPECT_EQ(set.runs(), runs_of(spec)) << "seed " << seed;
    IdentityRuns copy;
    EXPECT_TRUE(copy.assign(set.runs())) << "seed " << seed;
  }
}

}  // namespace
}  // namespace paso
