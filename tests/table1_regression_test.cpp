// Regression lock on the Figure 1 reproduction (E1): the cost table's
// *exact* relationships, checked as assertions so any change to the
// network, group or server layers that perturbs the paper's cost structure
// fails CI rather than silently skewing the bench output.
#include <gtest/gtest.h>

#include "paso/cluster.hpp"

namespace paso {
namespace {

constexpr Cost kAlpha = 10.0;
constexpr Cost kBeta = 1.0;

Schema task_schema() {
  return Schema({ClassSpec{"t", {FieldType::kInt, FieldType::kText}, 0, 1}});
}

Tuple payload(std::int64_t key) {
  return {Value{key}, Value{std::string(16, 'x')}};
}

SearchCriterion by_key(std::int64_t key) {
  return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
}

class Table1Regression : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Cluster with a write group of exactly g machines and one spare.
  std::unique_ptr<Cluster> make_cluster() {
    const std::size_t g = GetParam();
    ClusterConfig config;
    config.machines = g + 2;
    config.lambda = g - 1;
    config.cost_model = CostModel{kAlpha, kBeta};
    auto cluster = std::make_unique<Cluster>(task_schema(), config);
    cluster->assign_basic_support();
    const ProcessId loader =
        cluster->process(cluster->basic_support(ClassId{0}).front());
    for (int i = 0; i < 20; ++i) {
      cluster->insert_sync(loader, payload(1000 + i));
    }
    cluster->ledger().reset();
    return cluster;
  }

  MachineId outside() const {
    return MachineId{static_cast<std::uint32_t>(GetParam())};
  }
};

TEST_P(Table1Regression, InsertRow) {
  const std::size_t g = GetParam();
  auto cluster = make_cluster();
  const ProcessId p = cluster->process(outside());
  const auto before = cluster->ledger().snapshot();
  ASSERT_TRUE(cluster->insert_sync(p, payload(1)));
  const CostTriple cost = cluster->ledger().since(before);
  // work = g * I(l), time = I(l) = 1 — exact.
  EXPECT_DOUBLE_EQ(cost.work, static_cast<Cost>(g));
  EXPECT_DOUBLE_EQ(cost.time, 1.0);
  // msg = g(alpha + beta*|m|) + (g-1)alpha + alpha, |m| = |o| + 4.
  PasoObject sample;
  sample.fields = payload(1);
  const Cost msg_bytes = static_cast<Cost>(sample.wire_size() + 4);
  EXPECT_DOUBLE_EQ(cost.msg_cost,
                   g * (kAlpha + kBeta * msg_bytes) + (g - 1) * kAlpha +
                       kAlpha);
}

TEST_P(Table1Regression, LocalReadRow) {
  auto cluster = make_cluster();
  const MachineId member = cluster->basic_support(ClassId{0}).front();
  const auto before = cluster->ledger().snapshot();
  ASSERT_TRUE(cluster->read_sync(cluster->process(member), by_key(1000))
                  .has_value());
  const CostTriple cost = cluster->ledger().since(before);
  EXPECT_DOUBLE_EQ(cost.msg_cost, 0.0);  // Figure 1: msg-cost 0
  EXPECT_DOUBLE_EQ(cost.time, 1.0);      // Q(l)
  EXPECT_DOUBLE_EQ(cost.work, 1.0);      // Q(l), one server
}

TEST_P(Table1Regression, RemoteReadRow) {
  const std::size_t g = GetParam();
  ClusterConfig config;
  config.machines = g + 2;
  config.lambda = g - 1;
  config.cost_model = CostModel{kAlpha, kBeta};
  config.runtime.read_route = ReadRoute::kWriteGroup;  // as in the row
  auto cluster = std::make_unique<Cluster>(task_schema(), config);
  cluster->assign_basic_support();
  const ProcessId loader =
      cluster->process(cluster->basic_support(ClassId{0}).front());
  cluster->insert_sync(loader, payload(1000));
  cluster->ledger().reset();

  const ProcessId p = cluster->process(outside());
  const SearchCriterion sc = by_key(1000);
  const auto before = cluster->ledger().snapshot();
  const auto found = cluster->read_sync(p, sc);
  ASSERT_TRUE(found.has_value());
  const CostTriple cost = cluster->ledger().since(before);
  EXPECT_DOUBLE_EQ(cost.work, static_cast<Cost>(g));  // g * Q(l)
  EXPECT_DOUBLE_EQ(cost.time, 1.0);
  // msg = g(alpha + beta(|sc|+4)) + (g-1)alpha + alpha + beta|r|.
  const Cost fan = g * (kAlpha + kBeta * (sc.wire_size() + 4));
  const Cost acks = (g - 1) * kAlpha;
  const Cost resp = kAlpha + kBeta * found->wire_size();
  EXPECT_DOUBLE_EQ(cost.msg_cost, fan + acks + resp);
}

TEST_P(Table1Regression, ReadDelRow) {
  const std::size_t g = GetParam();
  auto cluster = make_cluster();
  const ProcessId p = cluster->process(outside());
  const SearchCriterion sc = by_key(1000);
  const auto before = cluster->ledger().snapshot();
  const auto taken = cluster->read_del_sync(p, sc);
  ASSERT_TRUE(taken.has_value());
  const CostTriple cost = cluster->ledger().since(before);
  EXPECT_DOUBLE_EQ(cost.work, static_cast<Cost>(g));  // g * D(l)
  EXPECT_DOUBLE_EQ(cost.time, 1.0);
  // The remove header is 12 bytes: class id plus the 8-byte idempotence
  // token replicas use to dedup retried removals.
  const Cost fan = g * (kAlpha + kBeta * (sc.wire_size() + 12));
  const Cost acks = (g - 1) * kAlpha;
  const Cost resp = kAlpha + kBeta * taken->wire_size();
  EXPECT_DOUBLE_EQ(cost.msg_cost, fan + acks + resp);
}

TEST_P(Table1Regression, ReadGroupRowCapsAtLambdaPlusOne) {
  const std::size_t g = GetParam();
  if (g < 3) return;  // needs wg strictly larger than rg to be interesting
  ClusterConfig config;
  config.machines = g + 2;
  config.lambda = 1;  // rg size 2 regardless of wg size
  config.cost_model = CostModel{kAlpha, kBeta};
  auto cluster = std::make_unique<Cluster>(task_schema(), config);
  cluster->assign_basic_support();
  for (std::uint32_t m = 0; m < g; ++m) {
    cluster->runtime(MachineId{m}).request_join(ClassId{0});
  }
  cluster->settle();
  const ProcessId loader = cluster->process(MachineId{0});
  cluster->insert_sync(loader, payload(1000));
  cluster->ledger().reset();
  const ProcessId p =
      cluster->process(MachineId{static_cast<std::uint32_t>(g + 1)});
  const auto before = cluster->ledger().snapshot();
  ASSERT_TRUE(cluster->read_sync(p, by_key(1000)).has_value());
  // Work reflects rg = lambda + 1 = 2 servers, independent of |wg| = g.
  EXPECT_DOUBLE_EQ(cluster->ledger().since(before).work, 2.0);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, Table1Regression,
                         ::testing::Values<std::size_t>(2, 3, 5, 8),
                         [](const auto& info) {
                           return "g" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace paso
