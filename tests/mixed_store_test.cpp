// End-to-end tests with heterogeneous per-class stores: a dictionary class
// on the hash-table IndexedStore, a range class on the ordered (search-tree)
// IndexedStore, a scan class on LinearStore —
// Section 5's three data-structure families living side by side in one
// memory, with per-class model costs flowing into the work ledger.
#include <gtest/gtest.h>

#include "paso/cluster.hpp"
#include "storage/indexed_store.hpp"
#include "storage/linear_store.hpp"

namespace paso {
namespace {

Schema mixed_schema() {
  return Schema({
      ClassSpec{"dict", {FieldType::kInt, FieldType::kText}, 0, 1},
      ClassSpec{"series", {FieldType::kReal, FieldType::kInt}, 0, 1},
      ClassSpec{"doc", {FieldType::kText}, 0, 1},
  });
}

MemoryServer::ClassStoreFactory mixed_factory(const Schema& schema) {
  return [&schema](ClassId cls) -> std::unique_ptr<storage::ObjectStore> {
    const auto [spec_index, partition] = schema.locate(cls);
    (void)partition;
    switch (spec_index) {
      case 0:
        return std::make_unique<storage::IndexedStore>(
            std::vector<std::size_t>{0});
      case 1:
        return std::make_unique<storage::IndexedStore>(
            std::vector<std::size_t>{0},
            storage::IndexedStore::Options{.ordered = true});
      default:
        return std::make_unique<storage::LinearStore>();
    }
  };
}

class MixedStoreTest : public ::testing::Test {
 protected:
  MixedStoreTest()
      : schema_(mixed_schema()),
        cluster_(mixed_schema(), make_config(schema_)) {
    cluster_.assign_basic_support();
  }

  static ClusterConfig make_config(const Schema& schema) {
    ClusterConfig cfg;
    cfg.machines = 5;
    cfg.lambda = 1;
    // NOTE: the factory must reference the cluster's own schema; capturing
    // a reference to an equal schema with identical class ids is fine.
    cfg.store_factory = mixed_factory(schema);
    return cfg;
  }

  Schema schema_;  // declared before cluster_: the factory refers to it
  Cluster cluster_;
};

TEST_F(MixedStoreTest, EachClassGetsItsStoreKind) {
  const ProcessId p = cluster_.process(MachineId{0});
  ASSERT_TRUE(cluster_.insert_sync(
      p, {Value{std::int64_t{1}}, Value{std::string{"d"}}}));
  ASSERT_TRUE(cluster_.insert_sync(p, {Value{1.5}, Value{std::int64_t{10}}}));
  ASSERT_TRUE(cluster_.insert_sync(p, {Value{std::string{"body text"}}}));

  // All three classes answer their natural query shapes.
  EXPECT_TRUE(cluster_
                  .read_sync(p, criterion(Exact{Value{std::int64_t{1}}},
                                          TypedAny{FieldType::kText}))
                  .has_value());
  EXPECT_TRUE(cluster_
                  .read_sync(p, criterion(RealRange{1.0, 2.0},
                                          TypedAny{FieldType::kInt}))
                  .has_value());
  EXPECT_TRUE(
      cluster_.read_sync(p, criterion(TextPrefix{"body"})).has_value());
}

TEST_F(MixedStoreTest, ScanClassChargesLinearWork) {
  const ProcessId p = cluster_.process(MachineId{0});
  constexpr int kDocs = 40;
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(cluster_.insert_sync(
        p, {Value{std::string{"doc-" + std::to_string(i)}}}));
  }
  const ClassId doc_cls = *schema_.classify({Value{std::string{"x"}}});
  const MachineId member = cluster_.basic_support(doc_cls).front();
  const auto before = cluster_.ledger().snapshot();
  // Local read on the scan class: Q(l) = l work units.
  ASSERT_TRUE(cluster_
                  .read_sync(cluster_.process(member),
                             criterion(TextPrefix{"doc-39"}))
                  .has_value());
  const CostTriple cost = cluster_.ledger().since(before);
  EXPECT_DOUBLE_EQ(cost.work, kDocs);
}

TEST_F(MixedStoreTest, RangeClassChargesLogarithmicWork) {
  const ProcessId p = cluster_.process(MachineId{0});
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(cluster_.insert_sync(
        p, {Value{static_cast<double>(i)}, Value{std::int64_t{i}}}));
  }
  const ClassId cls = *schema_.classify({Value{1.0}, Value{std::int64_t{0}}});
  const MachineId member = cluster_.basic_support(cls).front();
  const auto before = cluster_.ledger().snapshot();
  ASSERT_TRUE(cluster_
                  .read_sync(cluster_.process(member),
                             criterion(RealRange{500.0, 501.0},
                                       TypedAny{FieldType::kInt}))
                  .has_value());
  const CostTriple cost = cluster_.ledger().since(before);
  // Q(l) = 1 + floor(log2(l+1)) with l = 1000 -> 10 work units.
  EXPECT_DOUBLE_EQ(cost.work, 10.0);
}

TEST_F(MixedStoreTest, StateTransferWorksPerStoreKind) {
  const ProcessId p = cluster_.process(MachineId{0});
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(cluster_.insert_sync(
        p, {Value{static_cast<double>(i)}, Value{std::int64_t{i}}}));
  }
  const ClassId cls = *schema_.classify({Value{1.0}, Value{std::int64_t{0}}});
  const auto support = cluster_.basic_support(cls);
  cluster_.crash(support[0]);
  cluster_.settle();
  cluster_.recover(support[0]);
  cluster_.settle();
  EXPECT_EQ(cluster_.server(support[0]).live_count(cls), 15u);
  // The recovered ordered store still serves range queries.
  EXPECT_TRUE(cluster_
                  .read_sync(cluster_.process(support[0]),
                             criterion(RealRange{7.0, 7.5},
                                       TypedAny{FieldType::kInt}))
                  .has_value());
}

}  // namespace
}  // namespace paso
