// Tests for the local object stores (Sections 4.2, 5) — IndexedStore's
// hash and ordered settings and LinearStore: store_M / mem-read_M /
// remove_M semantics, oldest-first removal, snapshot/load for state
// transfer, and the model cost functions I/Q/D.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "storage/indexed_store.hpp"
#include "storage/linear_store.hpp"

namespace paso::storage {
namespace {

PasoObject make_object(std::uint64_t seq, std::int64_t key,
                       const std::string& text = "t") {
  PasoObject object;
  object.id = ObjectId{ProcessId{MachineId{0}, 0}, seq};
  object.fields = {Value{key}, Value{text}};
  return object;
}

SearchCriterion key_criterion(std::int64_t key) {
  return criterion(Exact{Value{key}}, AnyField{});
}

/// Parameterized over the store configurations: shared behaviour contracts.
class StoreContractTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<ObjectStore> make_store() const {
    const std::string kind = GetParam();
    if (kind == "hash") {
      return std::make_unique<IndexedStore>(std::vector<std::size_t>{0});
    }
    if (kind == "ordered") {
      return std::make_unique<IndexedStore>(
          std::vector<std::size_t>{0}, IndexedStore::Options{.ordered = true});
    }
    if (kind == "indexed") {
      return std::make_unique<IndexedStore>(std::vector<std::size_t>{0, 1});
    }
    if (kind == "ordered_multi") {
      return std::make_unique<IndexedStore>(
          std::vector<std::size_t>{0, 1},
          IndexedStore::Options{.ordered = true});
    }
    return std::make_unique<LinearStore>();
  }

  /// A store of `n` objects over a narrow key domain (repeated keys, so
  /// hash buckets hold several ages) with every fourth one removed again
  /// (so the age order holds tombstones); ages are 0..n-1.
  std::unique_ptr<ObjectStore> make_filled_store(std::mt19937_64& rng,
                                                 std::size_t n) const {
    auto store = make_store();
    for (std::uint64_t age = 0; age < n; ++age) {
      store->store(random_object(rng, age), age);
    }
    for (std::size_t i = 0; i < n / 4; ++i) {
      store->remove(key_criterion(static_cast<std::int64_t>(rng() % 40)));
    }
    return store;
  }

  static PasoObject random_object(std::mt19937_64& rng, std::uint64_t seq) {
    std::string text;
    for (std::size_t i = rng() % 4; i > 0; --i) text.push_back("ab"[rng() % 2]);
    return make_object(seq, static_cast<std::int64_t>(rng() % 40), text);
  }

  /// Exact, Range, Prefix and TopK criteria over the objects above.
  static SearchCriterion random_criterion(std::mt19937_64& rng) {
    const auto key = [&rng] {
      return Value{static_cast<std::int64_t>(rng() % 44) - 2};
    };
    switch (rng() % 4) {
      case 0:
        return criterion(Exact{key()}, AnyField{});
      case 1: {
        Value lo = key();
        Value hi = key();
        if (hi < lo) std::swap(lo, hi);
        return criterion(range_between(lo, hi, rng() % 2 == 0), AnyField{});
      }
      case 2: {
        std::string prefix;
        for (std::size_t i = rng() % 3; i > 0; --i) {
          prefix.push_back("ab"[rng() % 2]);
        }
        return criterion(AnyField{}, TextPrefix{prefix});
      }
      default:
        return ranked(criterion(AnyField{}, AnyField{}),
                      TopK{.field = 0,
                           .k = static_cast<std::uint32_t>(1 + rng() % 3),
                           .descending = rng() % 2 == 0});
    }
  }
};

TEST_P(StoreContractTest, StoreAndFindByExactKey) {
  auto store = make_store();
  store->store(make_object(1, 42), 0);
  store->store(make_object(2, 7), 1);
  const auto found = store->find(key_criterion(42));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 1u);
  EXPECT_FALSE(store->find(key_criterion(99)).has_value());
}

TEST_P(StoreContractTest, FindReturnsOldestMatch) {
  auto store = make_store();
  store->store(make_object(1, 5, "first"), 0);
  store->store(make_object(2, 5, "second"), 1);
  const auto found = store->find(key_criterion(5));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 1u);
}

TEST_P(StoreContractTest, RemoveReturnsOldestAndDeletes) {
  auto store = make_store();
  store->store(make_object(1, 5), 0);
  store->store(make_object(2, 5), 1);
  const auto removed = store->remove(key_criterion(5));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id.sequence, 1u);
  EXPECT_EQ(store->size(), 1u);
  const auto second = store->remove(key_criterion(5));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id.sequence, 2u);
  EXPECT_FALSE(store->remove(key_criterion(5)).has_value());
  EXPECT_EQ(store->size(), 0u);
}

TEST_P(StoreContractTest, AgesMustAscend) {
  // Ages are delivery order: a store below (or at) the last age, or a load
  // whose ages are out of order, is a caller's bug, not something to sort.
  auto store = make_store();
  store->store(make_object(1, 1), 5);
  EXPECT_THROW(store->store(make_object(2, 2), 3), InvariantViolation);
  EXPECT_THROW(store->store(make_object(2, 2), 5), InvariantViolation);
  EXPECT_EQ(store->size(), 1u);

  store->store(make_object(2, 2), 9);
  auto swapped = store->snapshot();
  ASSERT_EQ(swapped.size(), 2u);
  std::swap(swapped[0].age, swapped[1].age);
  auto other = make_store();
  other->store(make_object(3, 3), 0);
  EXPECT_THROW(other->load(swapped), InvariantViolation);
  EXPECT_EQ(other->size(), 1u) << "a refused load must leave the store as is";
}

TEST_P(StoreContractTest, GeneralCriterionFallsBackToScan) {
  auto store = make_store();
  store->store(make_object(1, 10, "alpha"), 0);
  store->store(make_object(2, 20, "beta"), 1);
  // No exact key: a text prefix on the second field forces a scan.
  const auto found = store->find(criterion(AnyField{}, TextPrefix{"be"}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 2u);
}

TEST_P(StoreContractTest, SnapshotLoadRoundTripsInAgeOrder) {
  auto store = make_store();
  store->store(make_object(1, 1), 5);
  store->store(make_object(2, 2), 9);
  const auto snapshot = store->snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].age, 5u);
  EXPECT_EQ(snapshot[1].age, 9u);

  auto other = make_store();
  other->load(snapshot);
  EXPECT_EQ(other->size(), 2u);
  // Removal order (by age) must be preserved across the transfer.
  const auto oldest = other->remove(criterion(AnyField{}, AnyField{}));
  ASSERT_TRUE(oldest.has_value());
  EXPECT_EQ(oldest->id.sequence, 1u);
}

TEST_P(StoreContractTest, CloneAnswersLikeTheOriginalAndALoadedStore) {
  // A clone copies the age order, counts and indexes table by table instead
  // of re-indexing: it must answer every find and remove exactly as the
  // original does and as a store load() built from the original's
  // snapshot, over tombstones and repeated keys, while all three take the
  // same further stores and removals.
  std::mt19937_64 rng(27);
  auto original = make_filled_store(rng, 400);
  auto clone = original->clone();
  auto loaded = make_store();
  loaded->load(original->snapshot());
  ObjectStore* stores[] = {original.get(), clone.get(), loaded.get()};
  std::uint64_t age = 400;
  for (int step = 0; step < 3000; ++step) {
    for (ObjectStore* store : stores) {
      ASSERT_EQ(store->size(), original->size()) << "step " << step;
      ASSERT_EQ(store->state_bytes(), original->state_bytes());
      ASSERT_EQ(store->arity_count(2), original->arity_count(2));
    }
    const std::uint64_t roll = rng() % 8;
    if (roll == 0) {
      const PasoObject object = random_object(rng, age);
      for (ObjectStore* store : stores) store->store(object, age);
      ++age;
      continue;
    }
    const SearchCriterion sc = random_criterion(rng);
    const bool remove = roll < 3;
    const auto expected = remove ? original->remove(sc) : original->find(sc);
    for (ObjectStore* store : {clone.get(), loaded.get()}) {
      const auto got = remove ? store->remove(sc) : store->find(sc);
      ASSERT_EQ(got, expected)
          << "step " << step << (remove ? " remove " : " find ")
          << (store == clone.get() ? "on the clone" : "on the loaded store");
    }
  }
  if (const auto* indexed = dynamic_cast<const IndexedStore*>(original.get())) {
    EXPECT_EQ(dynamic_cast<const IndexedStore&>(*clone).index_stats(),
              indexed->index_stats());
  }
}

TEST_P(StoreContractTest, MutatingACloneLeavesTheOriginalUnchanged) {
  std::mt19937_64 rng(28);
  auto original = make_filled_store(rng, 300);
  const auto before = original->snapshot();
  const std::size_t bytes = original->state_bytes();
  auto reference = make_store();
  reference->load(before);

  // Empty the clone by removals, then refill it with other objects.
  auto clone = original->clone();
  while (clone->remove(criterion(AnyField{}, AnyField{})).has_value()) {
  }
  for (std::uint64_t age = 300; age < 400; ++age) {
    clone->store(random_object(rng, age), age);
  }
  EXPECT_EQ(clone->size(), 100u);

  const auto after = original->snapshot();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].age, before[i].age);
    EXPECT_EQ(after[i].object.get(), before[i].object.get());
  }
  EXPECT_EQ(original->state_bytes(), bytes);
  // The original's indexes still answer as a store built from its contents.
  for (int step = 0; step < 1000; ++step) {
    const SearchCriterion sc = random_criterion(rng);
    ASSERT_EQ(original->find(sc), reference->find(sc)) << "step " << step;
  }
}

TEST_P(StoreContractTest, StateBytesTracksContent) {
  auto store = make_store();
  const std::size_t empty = store->state_bytes();
  store->store(make_object(1, 1, "payload"), 0);
  EXPECT_GT(store->state_bytes(), empty);
  store->clear();
  EXPECT_EQ(store->state_bytes(), empty);
}

TEST_P(StoreContractTest, ClearEmptiesEverything) {
  auto store = make_store();
  store->store(make_object(1, 1), 0);
  store->store(make_object(2, 2), 1);
  store->clear();
  EXPECT_EQ(store->size(), 0u);
  EXPECT_FALSE(store->find(criterion(AnyField{}, AnyField{})).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllStores, StoreContractTest,
                         ::testing::Values("hash", "ordered", "linear",
                                           "indexed", "ordered_multi"),
                         [](const auto& info) { return info.param; });

// --- kind-specific behaviour -------------------------------------------------

TEST(HashPresetTest, UnitModelCosts) {
  IndexedStore store({0});
  for (std::uint64_t i = 0; i < 100; ++i) store.store(make_object(i, 1), i);
  EXPECT_DOUBLE_EQ(store.insert_cost(), 1.0);
  EXPECT_DOUBLE_EQ(store.query_cost(), 1.0);
  EXPECT_DOUBLE_EQ(store.remove_cost(), 1.0);
}

TEST(HashPresetTest, OneOfWithRepeatedValuesProbesEachBucketOnce) {
  IndexedStore store({0});
  for (std::uint64_t i = 0; i < 8; ++i) {
    store.store(make_object(i, static_cast<std::int64_t>(i % 2)), i);
  }
  const std::uint64_t before = store.match_probes();
  // The value 1 appears three times. A bucket walk stops at its first
  // verified (oldest) match, so visiting each distinct bucket once costs one
  // probe per bucket (1 + 1); every rescan of the 1-bucket adds another.
  const auto found = store.find(criterion(
      OneOf{{Value{1ll}, Value{1ll}, Value{0ll}, Value{1ll}}}, AnyField{}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 0u);
  EXPECT_EQ(store.match_probes() - before, 2u)
      << "repeated OneOf values rescanned a bucket";
}

TEST(IndexedStoreTest, NonFirstFieldCriterionUsesItsIndex) {
  IndexedStore store(std::vector<std::size_t>{0, 1});
  for (std::uint64_t i = 0; i < 100; ++i) {
    store.store(make_object(i, static_cast<std::int64_t>(i),
                            i == 73 ? "needle" : "hay"),
                i);
  }
  const std::uint64_t before = store.match_probes();
  // Field 1 is indexed: an Exact text criterion must go straight to its
  // bucket (1 candidate) instead of scanning 74 objects by age.
  const auto found =
      store.find(criterion(AnyField{}, Exact{Value{std::string{"needle"}}}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 73u);
  EXPECT_EQ(store.match_probes() - before, 1u);
}

TEST(IndexedStoreTest, PicksTheMostSelectiveIndexedField) {
  IndexedStore store(std::vector<std::size_t>{0, 1});
  // Field 0 has 2 distinct values (huge buckets), field 1 is unique.
  for (std::uint64_t i = 0; i < 50; ++i) {
    store.store(
        make_object(i, static_cast<std::int64_t>(i % 2), std::to_string(i)),
        i);
  }
  const std::uint64_t before = store.match_probes();
  const auto found = store.find(criterion(
      Exact{Value{1ll}}, Exact{Value{std::string{"41"}}}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 41u);
  EXPECT_EQ(store.match_probes() - before, 1u)
      << "selectivity rule did not pick the unique field-1 bucket";
}

TEST(IndexedStoreTest, EmptyBucketShortCircuitsToNoMatch) {
  IndexedStore store(std::vector<std::size_t>{0});
  for (std::uint64_t i = 0; i < 20; ++i) {
    store.store(make_object(i, 7), i);
  }
  const std::uint64_t before = store.match_probes();
  EXPECT_FALSE(store.find(key_criterion(8)).has_value());
  EXPECT_EQ(store.match_probes() - before, 0u)
      << "an empty bucket proves no match; nothing should be probed";
}

TEST(IndexedStoreTest, ModelCostsScaleWithIndexCount) {
  IndexedStore one(std::vector<std::size_t>{0});
  IndexedStore three(std::vector<std::size_t>{0, 1, 2});
  EXPECT_DOUBLE_EQ(one.insert_cost(), 1.0);
  EXPECT_DOUBLE_EQ(three.insert_cost(), 3.0);
  EXPECT_DOUBLE_EQ(three.query_cost(), 1.0);
}

TEST(OrderedPresetTest, RangeQueriesUseTheIndex) {
  IndexedStore store({0}, IndexedStore::Options{.ordered = true});
  for (std::int64_t k = 0; k < 50; ++k) {
    store.store(make_object(static_cast<std::uint64_t>(k), k), k);
  }
  const auto found = store.find(criterion(IntRange{10, 12}, AnyField{}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(std::get<std::int64_t>(found->fields[0]), 10);
  const auto removed = store.remove(criterion(IntRange{48, 100}, AnyField{}));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(std::get<std::int64_t>(removed->fields[0]), 48);
  // A removal driven by the sorted twin leaves the hash index aligned.
  EXPECT_FALSE(store.find(key_criterion(48)).has_value());
  EXPECT_TRUE(store.find(key_criterion(49)).has_value());
}

TEST(OrderedPresetTest, LogarithmicQueryCostGrowsWithSize) {
  IndexedStore store({0}, IndexedStore::Options{.ordered = true});
  EXPECT_DOUBLE_EQ(store.query_cost(), 1.0);
  for (std::uint64_t i = 0; i < 1024; ++i) store.store(make_object(i, 1), i);
  EXPECT_DOUBLE_EQ(store.query_cost(), 11.0);  // 1 + floor(log2(1025))
  EXPECT_DOUBLE_EQ(store.insert_cost(), 2.0);  // hash bucket + tree insert
  EXPECT_DOUBLE_EQ(store.remove_cost(), 2.0);
}

TEST(LinearStoreTest, LinearModelCosts) {
  LinearStore store;
  for (std::uint64_t i = 0; i < 37; ++i) store.store(make_object(i, 1), i);
  EXPECT_DOUBLE_EQ(store.query_cost(), 37.0);
  EXPECT_DOUBLE_EQ(store.remove_cost(), 37.0);
  EXPECT_DOUBLE_EQ(store.insert_cost(), 1.0);
}

TEST(LinearStoreTest, EmptyStoreCostsFloorAtOne) {
  LinearStore store;
  EXPECT_DOUBLE_EQ(store.query_cost(), 1.0);
}

TEST(OrderedPresetTest, RealRangeQueries) {
  IndexedStore store({0}, IndexedStore::Options{.ordered = true});
  PasoObject object;
  object.id = ObjectId{ProcessId{MachineId{0}, 0}, 1};
  object.fields = {Value{3.25}, Value{std::string{"x"}}};
  store.store(object, 0);
  const auto found = store.find(criterion(RealRange{3.0, 3.5}, AnyField{}));
  EXPECT_TRUE(found.has_value());
  EXPECT_FALSE(
      store.find(criterion(RealRange{3.3, 3.5}, AnyField{})).has_value());
}

// --- query engine: planner, ordered mode, stats, ranked reads ---------------

TEST(QueryPlanTest, OrdersCompoundCriteriaBySelectivity) {
  IndexedStore store({0, 1}, IndexedStore::Options{true});
  // Field 0: two fat buckets. Field 1: unique values.
  for (std::uint64_t i = 0; i < 40; ++i) {
    store.store(
        make_object(i, static_cast<std::int64_t>(i % 2), std::to_string(i)),
        i);
  }
  const QueryPlan plan = store.plan(
      criterion(Exact{Value{0ll}}, Exact{Value{std::string{"12"}}}));
  ASSERT_EQ(plan.access, PlanAccess::kIndex);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].field, 1u);  // 1 candidate beats 20
  EXPECT_EQ(plan.steps[0].estimate, 1u);
  EXPECT_EQ(plan.steps[1].field, 0u);
  EXPECT_EQ(plan.steps[1].estimate, 20u);
}

TEST(QueryPlanTest, ArityMismatchIsImpossibleWithoutProbing) {
  IndexedStore store({0}, IndexedStore::Options{true});
  for (std::uint64_t i = 0; i < 10; ++i) store.store(make_object(i, 1), i);
  // No arity-3 object was ever stored: the histogram proves no match.
  const QueryPlan plan =
      store.plan(criterion(AnyField{}, AnyField{}, AnyField{}));
  EXPECT_EQ(plan.access, PlanAccess::kImpossible);
  EXPECT_STREQ(plan.reason, "arity");
  const std::uint64_t before = store.match_probes();
  EXPECT_FALSE(
      store.find(criterion(AnyField{}, AnyField{}, AnyField{})).has_value());
  EXPECT_EQ(store.match_probes() - before, 0u);
}

TEST(QueryPlanTest, ProvablyEmptyRangeIsImpossible) {
  IndexedStore store({0}, IndexedStore::Options{true});
  for (std::uint64_t i = 0; i < 10; ++i) {
    store.store(make_object(i, static_cast<std::int64_t>(i)), i);
  }
  // Inverted and out-of-population ranges die in the planner, not the scan.
  EXPECT_EQ(store
                .plan(criterion(range_between(Value{5ll}, Value{2ll}),
                                AnyField{}))
                .access,
            PlanAccess::kImpossible);
  EXPECT_EQ(store
                .plan(criterion(range_at_least(Value{100ll}), AnyField{}))
                .access,
            PlanAccess::kImpossible);
  const std::uint64_t before = store.match_probes();
  EXPECT_FALSE(
      store.find(criterion(range_at_least(Value{100ll}), AnyField{}))
          .has_value());
  EXPECT_EQ(store.match_probes() - before, 0u);
}

TEST(QueryPlanTest, RangeWalkProbesOnlyTheRegion) {
  IndexedStore store({0}, IndexedStore::Options{true});
  for (std::uint64_t i = 0; i < 100; ++i) {
    store.store(make_object(i, static_cast<std::int64_t>(i)), i);
  }
  const std::uint64_t before = store.match_probes();
  // (10, 14]: keys 11..14 are in region and candidates surface oldest
  // first, so the first one verified — key 11 — answers: 1 probe, not 100.
  const auto found = store.find(criterion(
      range_between(Value{10ll}, Value{14ll}, /*lo_exclusive=*/true),
      AnyField{}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(std::get<std::int64_t>(found->fields[0]), 11);
  EXPECT_EQ(store.match_probes() - before, 1u);
}

TEST(QueryPlanTest, PrefixWalkProbesOnlyThePrefixRegion) {
  IndexedStore store({1}, IndexedStore::Options{true});
  store.store(make_object(0, 0, "apple"), 0);
  store.store(make_object(1, 0, "apricot"), 1);
  store.store(make_object(2, 0, "banana"), 2);
  store.store(make_object(3, 0, "cherry"), 3);
  const std::uint64_t before = store.match_probes();
  // "apple" is the oldest of the two 'ap' candidates and verifies first.
  const auto found = store.find(criterion(AnyField{}, TextPrefix{"ap"}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 0u);
  EXPECT_EQ(store.match_probes() - before, 1u)
      << "prefix read probed past the oldest 'ap' candidate";
}

TEST(QueryPlanTest, RegionProbesCandidatesOldestFirst) {
  // Ages and keys disagree (key = 37 * age mod 200), so the region's
  // oldest candidates are scattered across its keys. The j oldest objects
  // in the region fail the field-1 pattern; every other object passes it,
  // which keeps field 1's hash path less selective than the range.
  constexpr std::int64_t kLo = 50;
  constexpr std::int64_t kHi = 119;
  constexpr int kFailing = 5;
  IndexedStore store({0, 1}, IndexedStore::Options{true});
  LinearStore spec;
  int failing = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::int64_t key = static_cast<std::int64_t>(i * 37 % 200);
    const bool in_region = key >= kLo && key <= kHi;
    const bool fails = in_region && failing < kFailing;
    if (fails) ++failing;
    const PasoObject object = make_object(i, key, fails ? "n" : "y");
    store.store(object, i);
    spec.store(object, i);
  }
  const SearchCriterion sc = criterion(
      range_between(Value{kLo}, Value{kHi}), Exact{Value{std::string{"y"}}});
  ASSERT_EQ(store.plan(sc).steps.front().field, 0u) << "range must drive";
  const std::uint64_t before = store.match_probes();
  const auto found = store.find(sc);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found, spec.find(sc));
  EXPECT_EQ(store.match_probes() - before, kFailing + 1u);
  EXPECT_EQ(store.remove(sc), spec.remove(sc));
  const auto stats = store.index_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].entries, stats[1].entries);
  EXPECT_EQ(stats[0].entries, store.size());
}

TEST(IndexedStoreTest, OrderedModeCostsDoubleThePlainModel) {
  IndexedStore plain({0, 1});
  IndexedStore ordered({0, 1}, IndexedStore::Options{true});
  EXPECT_DOUBLE_EQ(plain.insert_cost(), 2.0);
  EXPECT_DOUBLE_EQ(ordered.insert_cost(), 4.0);  // hash + sorted twin each
  EXPECT_DOUBLE_EQ(plain.query_cost(), 1.0);
  EXPECT_DOUBLE_EQ(ordered.query_cost(), 1.0);  // empty store floors at 1
  for (std::uint64_t i = 0; i < 1024; ++i) {
    ordered.store(make_object(i, 1), i);
  }
  EXPECT_GE(ordered.query_cost(), 10.0);  // log-sized descent, like Ordered
}

TEST(IndexedStoreTest, CardinalityStatsTrackInsertAndRemove) {
  IndexedStore store({0, 1}, IndexedStore::Options{true});
  store.store(make_object(0, 7, "a"), 0);
  store.store(make_object(1, 7, "b"), 1);
  store.store(make_object(2, 9, "a"), 2);
  auto stats = store.index_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0], (IndexedStore::IndexStats{0, 3, 2}));  // keys {7,9}
  EXPECT_EQ(stats[1], (IndexedStore::IndexStats{1, 3, 2}));  // texts {a,b}
  ASSERT_TRUE(store.remove(key_criterion(7)).has_value());  // takes (7,"a")
  stats = store.index_stats();
  EXPECT_EQ(stats[0], (IndexedStore::IndexStats{0, 2, 2}));  // one 7 left
  EXPECT_EQ(stats[1], (IndexedStore::IndexStats{1, 2, 2}));  // (9,"a") remains
  ASSERT_TRUE(store.remove(key_criterion(7)).has_value());  // takes (7,"b")
  stats = store.index_stats();
  EXPECT_EQ(stats[0], (IndexedStore::IndexStats{0, 1, 1}));  // key 7 gone
  EXPECT_EQ(stats[1], (IndexedStore::IndexStats{1, 1, 1}));  // "b" gone
}

TEST(RankedReadTest, TopKSelectsByRankNotAge) {
  // Ages and key order deliberately disagree: ranked reads must follow the
  // score order, ties broken oldest-first — identically on the spec scan,
  // the hash setting (no rank order: scan) and the sorted walk.
  const auto fill = [](ObjectStore& store) {
    store.store(make_object(0, 30, "old-high"), 0);
    store.store(make_object(1, 10, "low"), 1);
    store.store(make_object(2, 30, "new-high"), 2);
    store.store(make_object(3, 20, "mid"), 3);
  };
  LinearStore spec;
  IndexedStore indexed({0}, IndexedStore::Options{.ordered = true});
  IndexedStore hash({0});
  fill(spec);
  fill(indexed);
  fill(hash);
  const SearchCriterion top1 = ranked(
      criterion(AnyField{}, AnyField{}), TopK{0, 1, /*descending=*/true});
  const SearchCriterion top2 = ranked(
      criterion(AnyField{}, AnyField{}), TopK{0, 2, /*descending=*/true});
  const SearchCriterion bottom = ranked(
      criterion(AnyField{}, AnyField{}), TopK{0, 1, /*descending=*/false});
  for (ObjectStore* store :
       std::initializer_list<ObjectStore*>{&spec, &indexed, &hash}) {
    EXPECT_EQ(store->find(top1)->id.sequence, 0u);  // 30, oldest of the tie
    EXPECT_EQ(store->find(top2)->id.sequence, 2u);  // 30, the newer twin
    EXPECT_EQ(store->find(bottom)->id.sequence, 1u);  // 10
  }
  // k past the match count finds nothing; a ranked remove takes the k-th.
  EXPECT_FALSE(spec.find(ranked(criterion(AnyField{}, AnyField{}),
                                TopK{0, 5, true}))
                   .has_value());
  const auto removed = indexed.remove(top1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id.sequence, 0u);
  EXPECT_EQ(indexed.find(top1)->id.sequence, 2u);
}

TEST(RankedReadTest, RankedWalkStopsAtK) {
  // 100 keyed objects, descending top-1: the sorted walk starts at the top
  // key and stops at the first verified match instead of scoring everything.
  IndexedStore store({0}, IndexedStore::Options{true});
  for (std::uint64_t i = 0; i < 100; ++i) {
    store.store(make_object(i, static_cast<std::int64_t>(i)), i);
  }
  const std::uint64_t before = store.match_probes();
  const auto found = store.find(
      ranked(criterion(AnyField{}, AnyField{}), TopK{0, 1, true}));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(std::get<std::int64_t>(found->fields[0]), 99);
  EXPECT_EQ(store.match_probes() - before, 1u)
      << "descending top-1 should probe only the top key";
}

}  // namespace
}  // namespace paso::storage
