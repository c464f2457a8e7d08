// Tests for the OneOf (IN-set) pattern: matching, typing, wire round-trip,
// sc-list partition-union narrowing, store fast paths, and end-to-end use.
#include <gtest/gtest.h>

#include "paso/cluster.hpp"
#include "paso/wire.hpp"
#include "storage/indexed_store.hpp"

namespace paso {
namespace {

Value iv(std::int64_t v) { return Value{v}; }

TEST(OneOfTest, MatchesAnyListedValue) {
  const FieldPattern p = OneOf{{iv(1), iv(3), Value{std::string{"x"}}}};
  EXPECT_TRUE(pattern_matches(p, iv(1)));
  EXPECT_TRUE(pattern_matches(p, iv(3)));
  EXPECT_TRUE(pattern_matches(p, Value{std::string{"x"}}));
  EXPECT_FALSE(pattern_matches(p, iv(2)));
  EXPECT_FALSE(pattern_matches(p, Value{1.0}));
}

TEST(OneOfTest, AdmitsOnlyListedTypes) {
  const FieldPattern p = OneOf{{iv(1), iv(2)}};
  EXPECT_TRUE(pattern_admits_type(p, FieldType::kInt));
  EXPECT_FALSE(pattern_admits_type(p, FieldType::kText));
}

TEST(OneOfTest, EmptySetMatchesNothing) {
  const FieldPattern p = OneOf{};
  EXPECT_FALSE(pattern_matches(p, iv(1)));
  EXPECT_FALSE(pattern_admits_type(p, FieldType::kInt));
}

TEST(OneOfTest, WireRoundTripAndSize) {
  const SearchCriterion sc = criterion(
      OneOf{{iv(5), iv(9), Value{std::string{"abc"}}}}, AnyField{});
  ByteWriter w;
  wire::encode_criterion(w, sc);
  EXPECT_EQ(w.size(), sc.wire_size());
  ByteReader r(w.bytes());
  EXPECT_EQ(wire::decode_criterion(r), sc);
}

TEST(OneOfTest, ToStringListsAlternatives) {
  const SearchCriterion sc = criterion(OneOf{{iv(1), iv(2)}});
  EXPECT_EQ(sc.to_string(), "[{1|2}]");
}

TEST(OneOfTest, ScListUnionsOnlyTheListedPartitions) {
  Schema schema({ClassSpec{"kv", {FieldType::kInt, FieldType::kText}, 0, 8}});
  // Gather the partitions the two keys actually hash to.
  const auto c1 = schema.classify({iv(100), Value{std::string{"x"}}});
  const auto c2 = schema.classify({iv(200), Value{std::string{"x"}}});
  ASSERT_TRUE(c1 && c2);
  const auto candidates = schema.candidate_classes(
      criterion(OneOf{{iv(100), iv(200)}}, TypedAny{FieldType::kText}));
  // Exactly the union of the two classes (1 if they collide, else 2),
  // never the full fan-out of 8.
  const std::size_t expected = c1 == c2 ? 1 : 2;
  EXPECT_EQ(candidates.size(), expected);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), *c1),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), *c2),
            candidates.end());
}

TEST(OneOfTest, HashIndexUsesBucketUnion) {
  storage::IndexedStore store({0});
  for (std::int64_t k = 0; k < 50; ++k) {
    PasoObject o;
    o.id = ObjectId{ProcessId{MachineId{0}, 0},
                    static_cast<std::uint64_t>(k)};
    o.fields = {iv(k), Value{std::string{"x"}}};
    store.store(o, static_cast<std::uint64_t>(k));
  }
  const auto found =
      store.find(criterion(OneOf{{iv(31), iv(17)}}, AnyField{}));
  ASSERT_TRUE(found.has_value());
  // Oldest of the two (age 17).
  EXPECT_EQ(std::get<std::int64_t>(found->fields[0]), 17);
}

TEST(OneOfTest, EndToEndReadAcrossSelectedPartitions) {
  Schema schema({ClassSpec{"kv", {FieldType::kInt, FieldType::kText}, 0, 4}});
  ClusterConfig cfg;
  cfg.machines = 6;
  cfg.lambda = 1;
  Cluster cluster(std::move(schema), cfg);
  cluster.assign_basic_support();
  const ProcessId p = cluster.process(MachineId{0});
  for (std::int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(cluster.insert_sync(
        p, {iv(k), Value{std::string{"v" + std::to_string(k)}}}));
  }
  // read&del with an IN-set: takes one of the listed keys, exactly once.
  const auto taken = cluster.read_del_sync(
      p, criterion(OneOf{{iv(2), iv(5)}}, TypedAny{FieldType::kText}));
  ASSERT_TRUE(taken.has_value());
  const std::int64_t got = std::get<std::int64_t>(taken->fields[0]);
  EXPECT_TRUE(got == 2 || got == 5);
  const auto second = cluster.read_del_sync(
      p, criterion(OneOf{{iv(2), iv(5)}}, TypedAny{FieldType::kText}));
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(std::get<std::int64_t>(second->fields[0]), got);
  EXPECT_FALSE(cluster
                   .read_del_sync(p, criterion(OneOf{{iv(2), iv(5)}},
                                               TypedAny{FieldType::kText}))
                   .has_value());
}

}  // namespace
}  // namespace paso
