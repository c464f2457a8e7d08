// Differential oracle for the query engine: LinearStore — a plain
// age-ordered scan with no index or plan to get wrong — is the executable
// spec. Random operation sequences with random criteria must produce
// byte-identical results on every other store family: same found object,
// same removed object (the OLDEST match, or the k-th ranked match for TopK
// criteria), same sizes, same snapshots.
//
// Families checked against the spec, all fed identical workloads:
//   IndexedStore({0}) in ordered mode (the single-field search tree),
//   IndexedStore(fields) in plain mode, IndexedStore(fields) in ordered
//   mode (sorted twins + selectivity planner). With fields = {0} the plain
//   family is the single-field hash table every class gets by default.
// Criteria cover Exact / OneOf-with-duplicates / IntRange / RealRange /
// TextPrefix / TypedAny / AnyField plus the query-engine additions: Range
// with open and exclusive bounds (including type-mismatched bounds that
// match nothing) and ranked TopK reads (both directions, k past the match
// count, rank fields out of range). Compound multi-field criteria exercise
// the selectivity planner's path ordering and arity early-out.
//
// Probe accounting must agree with itself: replaying a seed produces the
// exact same per-family probe totals (plans are deterministic), pinned by
// running every workload twice.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "storage/indexed_store.hpp"
#include "storage/linear_store.hpp"

namespace paso::storage {
namespace {

constexpr int kSeeds = 400;
constexpr int kOpsPerSeed = 120;

/// Objects are (int, text, int): field 0 a small-int key, field 1 a short
/// text, field 2 a second small-int — so indexed fields collide heavily and
/// oldest-first tie-breaking is exercised constantly.
PasoObject random_object(Rng& rng, std::uint64_t seq) {
  PasoObject object;
  object.id = ObjectId{ProcessId{MachineId{0}, 0}, seq};
  object.fields = {
      Value{static_cast<std::int64_t>(rng.index(6))},
      Value{std::string(1, static_cast<char>('a' + rng.index(4)))},
      Value{static_cast<std::int64_t>(rng.index(3))},
  };
  return object;
}

Value random_field_value(Rng& rng, std::size_t field) {
  if (field == 1) return Value{std::string(1, 'a' + rng.index(4))};
  return Value{static_cast<std::int64_t>(rng.index(6))};
}

FieldPattern random_pattern(Rng& rng, std::size_t field) {
  switch (rng.index(7)) {
    case 0:
      return Exact{random_field_value(rng, field)};
    case 1: {
      // OneOf with deliberate duplicates: the dedup path must not change
      // which object is oldest.
      OneOf one_of;
      const std::size_t n = 1 + rng.index(4);
      for (std::size_t i = 0; i < n; ++i) {
        one_of.values.push_back(random_field_value(rng, field));
      }
      if (rng.chance(0.5) && !one_of.values.empty()) {
        one_of.values.push_back(one_of.values.front());
      }
      return one_of;
    }
    case 2: {
      const std::int64_t lo = static_cast<std::int64_t>(rng.index(6)) - 1;
      return IntRange{lo, lo + static_cast<std::int64_t>(rng.index(4))};
    }
    case 3:
      return TextPrefix{rng.chance(0.5)
                            ? std::string(1, 'a' + rng.index(4))
                            : std::string{}};
    case 4: {
      // General Range: open/closed/missing bounds in every combination,
      // including inverted and type-mismatched (match-nothing) shapes.
      Range range;
      if (rng.chance(0.8)) {
        range.lo = Bound{random_field_value(rng, field), rng.chance(0.3)};
      }
      if (rng.chance(0.8)) {
        range.hi = Bound{random_field_value(rng, field), rng.chance(0.3)};
      }
      if (rng.chance(0.1)) {
        // Cross-typed bounds: provably empty, planner must prove it too.
        range.hi = Bound{field == 1 ? Value{std::int64_t{3}}
                                    : Value{std::string{"zz"}},
                         false};
      }
      return range;
    }
    case 5:
      return TypedAny{static_cast<FieldType>(rng.index(4))};
    default:
      return AnyField{};
  }
}

SearchCriterion random_criterion(Rng& rng) {
  SearchCriterion sc;
  // Mostly arity 3 (matching the objects); occasionally a wrong arity, which
  // must match nothing on either store.
  const std::size_t arity = rng.chance(0.9) ? 3 : 2 + rng.index(3);
  for (std::size_t f = 0; f < arity; ++f) {
    sc.fields.push_back(random_pattern(rng, f));
  }
  // A quarter of the criteria are ranked reads: any rank field (sometimes
  // out of range), k occasionally past the match count, both directions.
  if (rng.chance(0.25)) {
    TopK top_k;
    top_k.field = rng.index(4);  // 3 = out of range at arity 3
    top_k.k = 1 + rng.index(5);
    top_k.descending = rng.chance(0.5);
    sc.top_k = top_k;
  }
  return sc;
}

/// Matches exactly the objects whose fields equal `object`'s; removing with
/// it takes the oldest of them — `object` itself unless an older twin lives.
SearchCriterion exact_criterion(const PasoObject& object) {
  SearchCriterion sc;
  for (const Value& value : object.fields) sc.fields.push_back(Exact{value});
  return sc;
}

void expect_same(const std::optional<PasoObject>& from_linear,
                 const std::optional<PasoObject>& from_other,
                 const char* family, int seed, int op) {
  ASSERT_EQ(from_linear.has_value(), from_other.has_value())
      << family << " seed " << seed << " op " << op;
  if (from_linear) {
    EXPECT_EQ(from_linear->id, from_other->id)
        << family << " seed " << seed << " op " << op;
    EXPECT_TRUE(from_linear->fields == from_other->fields)
        << family << " seed " << seed << " op " << op;
  }
}

struct Family {
  const char* name;
  std::unique_ptr<ObjectStore> store;
};

std::vector<Family> make_families(const std::vector<std::size_t>& fields) {
  std::vector<Family> families;
  families.push_back(
      {"ordered", std::make_unique<IndexedStore>(
                      std::vector<std::size_t>{0},
                      IndexedStore::Options{.ordered = true})});
  families.push_back({"indexed", std::make_unique<IndexedStore>(fields)});
  families.push_back(
      {"indexed+sorted",
       std::make_unique<IndexedStore>(fields,
                                      IndexedStore::Options{true})});
  return families;
}

/// One seeded workload against the spec store and every family. Fills
/// `probes_out` with the per-family probe totals so callers can pin replay
/// determinism. (Out-parameter because ASSERT_* needs a void function.)
void run_oracle(int seed, const std::vector<std::size_t>& indexed_fields,
                std::vector<std::uint64_t>* probes_out = nullptr) {
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
  LinearStore linear;
  std::vector<Family> families = make_families(indexed_fields);
  std::uint64_t next_age = 0;
  std::uint64_t next_seq = 0;
  std::vector<PasoObject> removed_pool;  // candidates for re-insertion

  for (int op = 0; op < kOpsPerSeed; ++op) {
    const double dice = rng.uniform01();
    if (dice < 0.40) {
      // Insert — sometimes re-inserting a removed object under a NEW
      // identity and age (re-insertion puts it at the back of the age
      // order; all stores must agree).
      PasoObject object;
      if (!removed_pool.empty() && rng.chance(0.3)) {
        object = removed_pool[rng.index(removed_pool.size())];
        object.id = ObjectId{ProcessId{MachineId{0}, 0}, next_seq++};
      } else {
        object = random_object(rng, next_seq++);
      }
      const std::uint64_t age = next_age++;
      linear.store(object, age);
      for (Family& family : families) family.store->store(object, age);
    } else if (dice < 0.65) {
      const SearchCriterion sc = random_criterion(rng);
      const auto from_linear = linear.find(sc);
      for (Family& family : families) {
        expect_same(from_linear, family.store->find(sc), family.name, seed,
                    op);
      }
    } else if (dice < 0.90) {
      const SearchCriterion sc = random_criterion(rng);
      const auto from_linear = linear.remove(sc);
      for (Family& family : families) {
        expect_same(from_linear, family.store->remove(sc), family.name, seed,
                    op);
      }
      if (from_linear) removed_pool.push_back(*from_linear);
    } else if (dice < 0.95) {
      // Remove a random live object (if any) by its exact field values.
      const auto snapshot = linear.snapshot();
      if (!snapshot.empty()) {
        const SearchCriterion sc =
            exact_criterion(*snapshot[rng.index(snapshot.size())].object);
        const auto from_linear = linear.remove(sc);
        ASSERT_TRUE(from_linear.has_value()) << "seed " << seed;
        for (Family& family : families) {
          expect_same(from_linear, family.store->remove(sc), family.name,
                      seed, op);
        }
      }
    } else {
      // State-transfer round trip of every family through its own
      // snapshot: contents, order and every index must survive a load.
      for (Family& family : families) {
        const auto snapshot = family.store->snapshot();
        family.store->clear();
        family.store->load(snapshot);
      }
    }
    for (Family& family : families) {
      ASSERT_EQ(family.store->size(), linear.size())
          << family.name << " seed " << seed << " op " << op;
    }
  }

  // Final sweep: snapshots agree object-for-object in age order, and
  // draining every store with a wildcard yields the same sequence.
  const auto snap_linear = linear.snapshot();
  for (Family& family : families) {
    const auto snap = family.store->snapshot();
    ASSERT_EQ(snap.size(), snap_linear.size())
        << family.name << " seed " << seed;
    for (std::size_t i = 0; i < snap.size(); ++i) {
      EXPECT_EQ(snap[i].age, snap_linear[i].age)
          << family.name << " seed " << seed;
      EXPECT_EQ(snap[i].object->id, snap_linear[i].object->id)
          << family.name << " seed " << seed;
    }
  }
  const SearchCriterion drain = criterion(AnyField{}, AnyField{}, AnyField{});
  while (true) {
    const auto from_linear = linear.remove(drain);
    for (Family& family : families) {
      expect_same(from_linear, family.store->remove(drain), family.name,
                  seed, -1);
    }
    if (!from_linear) break;
  }
  for (Family& family : families) {
    EXPECT_EQ(family.store->size(), 0u) << family.name << " seed " << seed;
  }

  if (probes_out) {
    probes_out->clear();
    probes_out->push_back(linear.match_probes());
    for (Family& family : families) {
      probes_out->push_back(family.store->match_probes());
    }
  }
}

TEST(IndexedStoreOracleTest, MatchesLinearStoreAcrossSeeds) {
  // Rotate the indexed field set so single-field, subset and full-arity
  // configurations all face the same workloads. Each seed runs twice:
  // identical probe totals pin plan determinism (probe accounting is a
  // pure function of the workload).
  const std::vector<std::vector<std::size_t>> configs{
      {0}, {0, 2}, {0, 1, 2}};
  for (int seed = 0; seed < kSeeds; ++seed) {
    const auto& config = configs[static_cast<std::size_t>(seed) % configs.size()];
    std::vector<std::uint64_t> probes;
    run_oracle(seed, config, &probes);
    if (::testing::Test::HasFatalFailure()) return;
    std::vector<std::uint64_t> replay;
    run_oracle(seed, config, &replay);
    EXPECT_EQ(probes, replay) << "probe accounting diverged on replay, seed "
                              << seed;
  }
}

/// Every family's snapshot agrees with the spec's, object for object.
void expect_same_snapshots(const LinearStore& linear,
                           const std::vector<Family>& families, int seed,
                           int round) {
  const auto expected = linear.snapshot();
  for (const Family& family : families) {
    const auto snap = family.store->snapshot();
    ASSERT_EQ(snap.size(), expected.size())
        << family.name << " seed " << seed << " round " << round;
    for (std::size_t i = 0; i < snap.size(); ++i) {
      EXPECT_EQ(snap[i].age, expected[i].age)
          << family.name << " seed " << seed;
      EXPECT_EQ(snap[i].object->id, expected[i].object->id)
          << family.name << " seed " << seed;
    }
  }
}

TEST(IndexedStoreOracleTest, EraseHeavyPhasesMatchLinearStore) {
  // The age order is a vector with tombstones, compacted once they
  // outnumber the live entries. Each round fills the stores in delivery
  // order, then removes three quarters of them — random live objects by
  // their exact field values, and random criteria — which forces compaction
  // mid-phase, with finds, snapshots and loads interleaved.
  const std::vector<std::vector<std::size_t>> configs{{0}, {0, 2}, {0, 1, 2}};
  for (int seed = 0; seed < 60; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 40503u + 3);
    LinearStore linear;
    std::vector<Family> families =
        make_families(configs[static_cast<std::size_t>(seed) % configs.size()]);
    std::uint64_t next_age = 0;
    std::uint64_t next_seq = 0;
    for (int round = 0; round < 4; ++round) {
      const int fill = 40 + static_cast<int>(rng.index(80));
      for (int i = 0; i < fill; ++i) {
        const PasoObject object = random_object(rng, next_seq++);
        const std::uint64_t age = next_age++;
        linear.store(object, age);
        for (Family& family : families) family.store->store(object, age);
      }
      const std::size_t target = linear.size() / 4;
      int op = 0;
      while (linear.size() > target) {
        ++op;
        const double dice = rng.uniform01();
        if (dice < 0.80) {
          // A victim is a random live object, so removing it must succeed.
          const bool victim = dice < 0.45;
          const SearchCriterion sc =
              victim ? exact_criterion(
                           *linear.snapshot()[rng.index(linear.size())].object)
                     : random_criterion(rng);
          const auto from_linear = linear.remove(sc);
          if (victim) {
            ASSERT_TRUE(from_linear.has_value()) << "seed " << seed;
          }
          for (Family& family : families) {
            expect_same(from_linear, family.store->remove(sc), family.name,
                        seed, op);
          }
        } else if (dice < 0.95) {
          const SearchCriterion sc = random_criterion(rng);
          const auto from_linear = linear.find(sc);
          for (Family& family : families) {
            expect_same(from_linear, family.store->find(sc), family.name,
                        seed, op);
          }
        } else {
          for (Family& family : families) {
            family.store->load(family.store->snapshot());
          }
        }
        for (Family& family : families) {
          ASSERT_EQ(family.store->size(), linear.size())
              << family.name << " seed " << seed << " op " << op;
          ASSERT_EQ(family.store->state_bytes(), linear.state_bytes())
              << family.name << " seed " << seed << " op " << op;
        }
      }
      expect_same_snapshots(linear, families, seed, round);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(IndexedStoreOracleTest, HashTableConfigMatchesToo) {
  // IndexedStore({0}) is the default class store (the hash table): fresh
  // seeds, reference-checked separately so a regression names it.
  for (int seed = 1000; seed < 1040; ++seed) {
    run_oracle(seed, {0});
  }
}

}  // namespace
}  // namespace paso::storage
