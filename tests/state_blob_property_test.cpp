// Property test: state-transfer round-trips across every store family.
//
// A seeded random workload (unique-key inserts and targeted removals) runs
// against four classes, one per store configuration — IndexedStore as the
// single-field hash table and search tree, two-field plain, and two-field
// ordered. The properties checked, per family:
//
//   1. capture_state's declared StateBlob::bytes equals the documented
//      accounting — store payload (16-byte header + per-object wire size +
//      8-byte age) + 8 for next_age + 24 per run of applied-insert
//      identities (one driver numbers its inserts per class consecutively,
//      so a class it inserted into holds one run, however many inserts) +
//      16 per cached remove token (robust read&dels carry one; plain ones
//      carry none) + 8 for the lsn stamp with persistence on — recomputed
//      here from an independent model of the live set.
//   2. A replica rebuilt through the real crash -> state transfer -> install
//      path answers every probe identically to the donor.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "paso/cluster.hpp"
#include "semantics/checker.hpp"
#include "storage/indexed_store.hpp"

namespace paso {
namespace {

// Four families, four distinct signatures so obj-clss and sc-list stay
// unambiguous: every tuple and every criterion names exactly one class. The
// fourth ("rich") runs the full query engine — ordered IndexedStore with
// sorted twins on both fields — so its blobs carry state that must rebuild
// hash buckets, sorted indexes and cardinality stats on install.
Schema family_schema() {
  return Schema({
      ClassSpec{"hash", {FieldType::kInt, FieldType::kText}, 0, 1},
      ClassSpec{"ordered", {FieldType::kReal, FieldType::kInt}, 0, 1},
      ClassSpec{"indexed", {FieldType::kInt, FieldType::kInt}, 0, 1},
      ClassSpec{"rich", {FieldType::kText, FieldType::kInt}, 0, 1},
  });
}

MemoryServer::ClassStoreFactory family_factory(const Schema& schema) {
  return [&schema](ClassId cls) -> std::unique_ptr<storage::ObjectStore> {
    switch (schema.locate(cls).first) {
      case 0:
        return std::make_unique<storage::IndexedStore>(
            std::vector<std::size_t>{0});
      case 1:
        return std::make_unique<storage::IndexedStore>(
            std::vector<std::size_t>{0},
            storage::IndexedStore::Options{.ordered = true});
      case 2:
        return std::make_unique<storage::IndexedStore>(
            std::vector<std::size_t>{0, 1});
      default:
        return std::make_unique<storage::IndexedStore>(
            std::vector<std::size_t>{0, 1},
            storage::IndexedStore::Options{true});
    }
  };
}

// One family's workload model: what the replicated class must now contain.
struct FamilyModel {
  std::size_t spec = 0;
  std::int64_t next_key = 0;
  std::vector<std::int64_t> live_keys;
  std::map<std::int64_t, std::size_t> live_wire_bytes;  // key -> wire size
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::uint64_t tokens = 0;  ///< robust read&dels: one cached token each
};

Tuple make_tuple(std::size_t spec, std::int64_t key,
                 const std::string& payload) {
  switch (spec) {
    case 0:
      return {Value{key}, Value{payload}};
    case 1:
      return {Value{static_cast<double>(key)}, Value{key}};
    case 2:
      return {Value{key}, Value{static_cast<std::int64_t>(payload.size())}};
    default:
      // Zero-padded text keys: lexicographic order == numeric order, so the
      // rich family's range and prefix probes below stay meaningful.
      return {Value{(key >= 0 && key < 10 ? "k0" : "k") + std::to_string(key)},
              Value{key}};
  }
}

// Unambiguous probe for one key of one family (see family_schema).
SearchCriterion key_criterion(std::size_t spec, std::int64_t key) {
  switch (spec) {
    case 0:
      return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
    case 1:
      return criterion(Exact{Value{static_cast<double>(key)}},
                       TypedAny{FieldType::kInt});
    case 2:
      return criterion(Exact{Value{key}}, TypedAny{FieldType::kInt});
    default:
      return criterion(TypedAny{FieldType::kText}, Exact{Value{key}});
  }
}

std::size_t tuple_wire_bytes(const Tuple& tuple) {
  std::size_t total = 16;  // the object identity
  for (const Value& field : tuple) total += wire_size(field);
  return total;
}

TEST(StateBlobPropertyTest, BlobAccountingAndRoundTripAcrossFamilies) {
  const std::uint64_t kSeeds[] = {11, 427, 90210};
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);

    Schema schema = family_schema();
    ClusterConfig cfg;
    cfg.machines = 5;
    cfg.lambda = 1;
    cfg.store_factory = family_factory(schema);
    // Half the seeds run with persistence on: the blob then carries an
    // 8-byte lsn stamp on top of the baseline accounting.
    cfg.persistence.enabled = (seed % 2 == 1);
    Cluster cluster(family_schema(), cfg);
    cluster.assign_basic_support();
    const ProcessId driver = cluster.process(MachineId{4});

    std::vector<FamilyModel> families(4);
    for (std::size_t spec = 0; spec < families.size(); ++spec) {
      families[spec].spec = spec;
    }

    // Random workload: mostly inserts (unique keys), some removals of a
    // known live key — so the model below tracks the exact live set. Half
    // the removals are robust read&dels, whose tokens every replica caches.
    const std::size_t ops = 60 + rng.index(40);
    for (std::size_t i = 0; i < ops; ++i) {
      FamilyModel& family = families[rng.index(families.size())];
      if (!family.live_keys.empty() && rng.chance(0.25)) {
        const std::size_t pos = rng.index(family.live_keys.size());
        const std::int64_t key = family.live_keys[pos];
        if (rng.chance(0.5)) {
          std::vector<OpReport> reports;
          cluster.runtime(driver.machine)
              .read_del_robust(driver, key_criterion(family.spec, key),
                               [&reports](OpReport r) { reports.push_back(r); });
          cluster.settle();
          ASSERT_EQ(reports.size(), 1u);
          ASSERT_EQ(reports[0].status, OpStatus::kOk);
          ASSERT_TRUE(reports[0].object.has_value());
          ++family.tokens;
        } else {
          const auto removed = cluster.read_del_sync(
              driver, key_criterion(family.spec, key));
          ASSERT_TRUE(removed.has_value());
        }
        family.live_keys.erase(family.live_keys.begin() + pos);
        family.live_wire_bytes.erase(key);
        ++family.removes;
      } else {
        const std::int64_t key = family.next_key++;
        const std::string payload(1 + rng.index(12), 'x');
        const Tuple tuple = make_tuple(family.spec, key, payload);
        ASSERT_TRUE(cluster.insert_sync(driver, tuple));
        family.live_keys.push_back(key);
        family.live_wire_bytes[key] = tuple_wire_bytes(tuple);
        ++family.inserts;
      }
    }

    std::uint64_t tokens = 0;
    for (const FamilyModel& family : families) tokens += family.tokens;
    ASSERT_GT(tokens, 0u) << "no robust read&del: tokens go unpinned";

    // Property 1: declared blob bytes == the documented accounting.
    for (const FamilyModel& family : families) {
      const auto cls = schema.classify(make_tuple(family.spec, -1, "p"));
      ASSERT_TRUE(cls.has_value());
      const MachineId donor_id = cluster.basic_support(*cls).front();
      MemoryServer& donor = cluster.server(donor_id);
      ASSERT_EQ(donor.live_count(*cls), family.live_keys.size());

      std::size_t store_bytes = 16;  // store header
      for (const auto& [key, bytes] : family.live_wire_bytes) {
        store_bytes += bytes + 8;  // object wire size + its age
      }
      EXPECT_EQ(donor.class_state_bytes(*cls), store_bytes)
          << "family " << family.spec;

      const vsync::StateBlob blob =
          donor.capture_state(schema.group_name(*cls));
      // The driver's run of insert identities and every robust read&del's
      // token pad the blob; a plain read&del ships token 0 and is never
      // cached.
      const std::size_t runs = family.inserts > 0 ? 1 : 0;
      std::size_t expected = store_bytes + 8 + 24 * runs + 16 * family.tokens;
      if (cluster.persistence_enabled()) expected += 8;  // the lsn stamp
      EXPECT_EQ(blob.bytes, expected) << "family " << family.spec;
    }

    // Property 2: rebuild each class's second replica through the real
    // crash -> transfer -> install path; it must answer every probe (live
    // and removed keys alike) exactly as the donor does.
    for (const FamilyModel& family : families) {
      const auto cls = schema.classify(make_tuple(family.spec, -1, "p"));
      const auto support = cluster.basic_support(*cls);
      const MachineId donor_id = support[0];
      const MachineId joiner_id = support[1];
      cluster.crash(joiner_id);
      cluster.settle_for(300);
      cluster.recover(joiner_id);
      cluster.settle();

      MemoryServer& donor = cluster.server(donor_id);
      MemoryServer& joiner = cluster.server(joiner_id);
      ASSERT_TRUE(joiner.supports(*cls)) << "family " << family.spec;
      EXPECT_EQ(joiner.live_count(*cls), family.live_keys.size());
      EXPECT_EQ(joiner.class_state_bytes(*cls),
                donor.class_state_bytes(*cls));
      for (std::int64_t key = 0; key < family.next_key; ++key) {
        const SearchCriterion sc = key_criterion(family.spec, key);
        const auto from_donor = donor.local_find(*cls, sc);
        const auto from_joiner = joiner.local_find(*cls, sc);
        ASSERT_EQ(from_donor.has_value(), from_joiner.has_value())
            << "family " << family.spec << " key " << key;
        if (from_donor) {
          EXPECT_EQ(from_donor->id, from_joiner->id);
          EXPECT_TRUE(from_donor->fields == from_joiner->fields);
        }
      }
      if (family.spec == 3) {
        // The rich family's installed replica must have rebuilt its sorted
        // twins and stats, not just the age backbone: query-engine probes
        // (prefix walk, text range, ranked read) answer like the donor.
        std::vector<SearchCriterion> probes;
        probes.push_back(
            criterion(TextPrefix{"k0"}, TypedAny{FieldType::kInt}));
        probes.push_back(criterion(
            range_between(Value{std::string{"k02"}}, Value{std::string{"k2"}},
                          /*lo_exclusive=*/true),
            TypedAny{FieldType::kInt}));
        probes.push_back(ranked(
            criterion(AnyField{}, range_at_least(Value{std::int64_t{3}})),
            TopK{1, 2, /*descending=*/true}));
        probes.push_back(ranked(criterion(AnyField{}, AnyField{}),
                                TopK{0, 3, /*descending=*/false}));
        for (std::size_t i = 0; i < probes.size(); ++i) {
          const auto from_donor = donor.local_find(*cls, probes[i]);
          const auto from_joiner = joiner.local_find(*cls, probes[i]);
          ASSERT_EQ(from_donor.has_value(), from_joiner.has_value())
              << "rich probe " << i;
          if (from_donor) {
            EXPECT_EQ(from_donor->id, from_joiner->id) << "rich probe " << i;
          }
        }
      }
    }

    const auto check =
        semantics::check_history(cluster.history(), cluster.run_context());
    EXPECT_TRUE(check.ok()) << (check.violations.empty()
                                    ? ""
                                    : check.violations.front());
  }
}

// ---------------------------------------------------------------------------
// Store-level property: an ordered IndexedStore rebuilt from its own
// snapshot (the payload a state-transfer blob carries) is structurally
// identical — same cardinality stats per index, same plan access for any
// criterion, same answer to random query-engine criteria.

TEST(StateBlobPropertyTest, OrderedIndexSnapshotRebuildsIdentically) {
  for (const std::uint64_t seed : {3ull, 71ull, 9001ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    storage::IndexedStore donor({0, 1}, storage::IndexedStore::Options{true});
    std::uint64_t age = 0;
    for (int i = 0; i < 80; ++i) {
      PasoObject object;
      object.id = ObjectId{ProcessId{MachineId{0}, 0}, age};
      object.fields = {Value{static_cast<std::int64_t>(rng.index(10))},
                       Value{std::string(1, 'a' + rng.index(5))}};
      donor.store(std::move(object), age);
      ++age;
      if (rng.chance(0.3)) {
        donor.remove(criterion(
            Exact{Value{static_cast<std::int64_t>(rng.index(10))}},
            AnyField{}));
      }
    }

    storage::IndexedStore joiner({0, 1},
                                 storage::IndexedStore::Options{true});
    joiner.load(donor.snapshot());

    EXPECT_EQ(joiner.index_stats(), donor.index_stats());
    for (int i = 0; i < 40; ++i) {
      SearchCriterion sc;
      const std::int64_t lo = static_cast<std::int64_t>(rng.index(10));
      switch (rng.index(4)) {
        case 0:
          sc = criterion(range_between(Value{lo}, Value{lo + 3},
                                       rng.chance(0.5), rng.chance(0.5)),
                         AnyField{});
          break;
        case 1:
          sc = criterion(AnyField{},
                         TextPrefix{std::string(1, 'a' + rng.index(5))});
          break;
        case 2:
          sc = ranked(criterion(AnyField{}, AnyField{}),
                      TopK{rng.index(2),
                           static_cast<std::uint32_t>(1 + rng.index(3)),
                           rng.chance(0.5)});
          break;
        default:
          sc = criterion(Exact{Value{lo}}, AnyField{});
          break;
      }
      EXPECT_EQ(joiner.plan(sc).access, donor.plan(sc).access) << "probe " << i;
      const auto from_donor = donor.find(sc);
      const auto from_joiner = joiner.find(sc);
      ASSERT_EQ(from_donor.has_value(), from_joiner.has_value())
          << "probe " << i;
      if (from_donor) EXPECT_EQ(from_donor->id, from_joiner->id);
    }
  }
}

}  // namespace
}  // namespace paso
