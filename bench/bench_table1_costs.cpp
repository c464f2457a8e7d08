// E1 — Figure 1 ("Costs of PASO Operations"), the paper's cost table.
//
// Regenerates every row of the table with the analytic prediction printed
// next to the measured value from the simulated system:
//
//   insert(o)        msg = g(2a + b|o|) + a       time = I(l)   work = g*I(l)
//   read(sc), M in C  msg = 0                      time = Q(l)   work = Q(l)
//   read(sc), M not   msg = g(2a + b(|sc|+|r|))    time = Q(l)   work = g*Q(l)
//   read&del(sc)      msg = g(2a + b(|sc|+|r|))    time = D(l)   work = g*D(l)
//
// Known, documented deviations of the physical system from the closed form:
// the leader's done-ack is a free self-send (-a), and wire messages carry a
// 4-byte class header (+4b per fan-out message). Both are printed.
#include <cmath>

#include "bench/bench_util.hpp"
#include "storage/indexed_store.hpp"
#include "storage/linear_store.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

constexpr Cost kAlpha = 10.0;
constexpr Cost kBeta = 1.0;

struct Row {
  std::string op;
  std::size_t g = 0;
  CostTriple predicted;
  CostTriple measured;
};

/// Build a cluster whose single class is replicated on `g` machines, with
/// `live` objects preloaded, and return it ready for measurement.
std::unique_ptr<Cluster> make_cluster(std::size_t g, std::size_t live,
                                      std::size_t text_bytes) {
  ClusterConfig config;
  config.machines = g + 2;  // leave machines outside the write group
  config.lambda = g - 1;    // basic support size = g
  config.cost_model = CostModel{kAlpha, kBeta};
  auto cluster = std::make_unique<Cluster>(TaskCluster::schema(), config);
  cluster->assign_basic_support();
  const ProcessId loader =
      cluster->process(cluster->basic_support(ClassId{0}).front());
  for (std::size_t i = 0; i < live; ++i) {
    cluster->insert_sync(loader,
                         TaskCluster::tuple(static_cast<std::int64_t>(i + 1000),
                                            text_bytes));
  }
  cluster->ledger().reset();
  return cluster;
}

Row measure_insert(std::size_t g, std::size_t live, std::size_t text_bytes) {
  auto cluster = make_cluster(g, live, text_bytes);
  const MachineId outside{static_cast<std::uint32_t>(g)};
  const ProcessId p = cluster->process(outside);

  const Tuple tuple = TaskCluster::tuple(1, text_bytes);
  PasoObject sample;
  sample.fields = tuple;
  const std::size_t obj_bytes = sample.wire_size();

  const auto before = cluster->ledger().snapshot();
  cluster->insert_sync(p, tuple);
  Row row;
  row.op = "insert(o)";
  row.g = g;
  row.measured = cluster->ledger().since(before);
  row.predicted.msg_cost =
      static_cast<Cost>(g) * (2 * kAlpha + kBeta * obj_bytes) + kAlpha;
  row.predicted.time = 1;                       // I(l) = 1 (hash store)
  row.predicted.work = static_cast<Cost>(g);    // g * I(l)
  return row;
}

Row measure_read_local(std::size_t g, std::size_t live,
                       std::size_t text_bytes) {
  auto cluster = make_cluster(g, live, text_bytes);
  const MachineId member = cluster->basic_support(ClassId{0}).front();
  const ProcessId p = cluster->process(member);
  const auto before = cluster->ledger().snapshot();
  cluster->read_sync(p, TaskCluster::by_key(1000));
  Row row;
  row.op = "read(sc), M in wg";
  row.g = g;
  row.measured = cluster->ledger().since(before);
  row.predicted = CostTriple{0, 1, 1};  // msg 0, Q(l), Q(l)
  return row;
}

Row measure_read_remote(std::size_t g, std::size_t live,
                        std::size_t text_bytes, bool read_groups,
                        std::size_t lambda_for_rg) {
  ClusterConfig config;
  config.machines = g + 2;
  config.lambda = g - 1;
  config.cost_model = CostModel{kAlpha, kBeta};
  config.runtime.read_route =
      read_groups ? ReadRoute::kBasicSupport : ReadRoute::kWriteGroup;
  config.runtime.lambda = lambda_for_rg;
  auto cluster = std::make_unique<Cluster>(TaskCluster::schema(), config);
  cluster->assign_basic_support();
  const ProcessId loader =
      cluster->process(cluster->basic_support(ClassId{0}).front());
  for (std::size_t i = 0; i < live; ++i) {
    cluster->insert_sync(loader,
                         TaskCluster::tuple(static_cast<std::int64_t>(i + 1000),
                                            text_bytes));
  }
  cluster->ledger().reset();

  const MachineId outside{static_cast<std::uint32_t>(g)};
  const ProcessId p = cluster->process(outside);
  const SearchCriterion sc = TaskCluster::by_key(1000);
  PasoObject sample;
  sample.fields = TaskCluster::tuple(1000, text_bytes);

  const auto before = cluster->ledger().snapshot();
  cluster->read_sync(p, sc);
  Row row;
  row.op = read_groups ? "read(sc), rg" : "read(sc), M not in wg";
  const std::size_t targets = read_groups ? std::min(lambda_for_rg + 1, g) : g;
  row.g = targets;
  row.measured = cluster->ledger().since(before);
  row.predicted.msg_cost =
      static_cast<Cost>(targets) *
      (2 * kAlpha + kBeta * (sc.wire_size() + sample.wire_size()));
  row.predicted.time = 1;
  row.predicted.work = static_cast<Cost>(targets);
  return row;
}

Row measure_read_del(std::size_t g, std::size_t live,
                     std::size_t text_bytes) {
  auto cluster = make_cluster(g, live, text_bytes);
  const MachineId outside{static_cast<std::uint32_t>(g)};
  const ProcessId p = cluster->process(outside);
  const SearchCriterion sc = TaskCluster::by_key(1000);
  PasoObject sample;
  sample.fields = TaskCluster::tuple(1000, text_bytes);

  const auto before = cluster->ledger().snapshot();
  cluster->read_del_sync(p, sc);
  Row row;
  row.op = "read&del(sc)";
  row.g = g;
  row.measured = cluster->ledger().since(before);
  row.predicted.msg_cost =
      static_cast<Cost>(g) *
      (2 * kAlpha + kBeta * (sc.wire_size() + sample.wire_size()));
  row.predicted.time = 1;
  row.predicted.work = static_cast<Cost>(g);
  return row;
}

void print_row(const Row& row) {
  std::printf("%-24s %3zu | %10.1f %10.1f %+7.1f | %6.1f %6.1f | %6.1f %6.1f\n",
              row.op.c_str(), row.g, row.predicted.msg_cost,
              row.measured.msg_cost,
              row.measured.msg_cost - row.predicted.msg_cost,
              row.predicted.time, row.measured.time, row.predicted.work,
              row.measured.work);
  result_line("table1_costs", row.op + "/g=" + std::to_string(row.g), 1, 0,
              row.measured.msg_cost, 0);
}

}  // namespace

int main() {
  print_header(
      "E1 / Figure 1: Costs of PASO Operations (alpha=10, beta=1, hash "
      "store: I=Q=D=1)");
  std::printf("%-24s %3s | %10s %10s %7s | %6s %6s | %6s %6s\n", "operation",
              "g", "msg:pred", "msg:meas", "delta", "t:pred", "t:meas",
              "w:pred", "w:meas");
  print_rule();

  for (const std::size_t g : {2u, 3u, 5u, 8u}) {
    print_row(measure_insert(g, 50, 16));
  }
  print_rule();
  for (const std::size_t g : {2u, 3u, 5u, 8u}) {
    print_row(measure_read_local(g, 50, 16));
  }
  print_rule();
  for (const std::size_t g : {2u, 3u, 5u, 8u}) {
    print_row(measure_read_remote(g, 50, 16, false, g - 1));
  }
  print_rule();
  for (const std::size_t g : {2u, 3u, 5u, 8u}) {
    print_row(measure_read_del(g, 50, 16));
  }

  print_header("Object-size sweep (insert, g = 3)");
  std::printf("%-24s %4s | %10s %10s\n", "operation", "|o|", "msg:pred",
              "msg:meas");
  print_rule();
  for (const std::size_t bytes : {8u, 32u, 128u, 512u, 2048u}) {
    const Row row = measure_insert(3, 10, bytes);
    std::printf("%-24s %4zu | %10.1f %10.1f\n", "insert(o)", bytes + 28,
                row.predicted.msg_cost, row.measured.msg_cost);
  }

  print_header("Live-object sweep (read local, hash store: Q(l) = 1)");
  std::printf("%-24s %5s | %6s %6s\n", "operation", "l", "t:meas", "w:meas");
  print_rule();
  for (const std::size_t live : {10u, 100u, 1000u}) {
    const Row row = measure_read_local(3, live, 16);
    std::printf("%-24s %5zu | %6.1f %6.1f\n", "read(sc), M in wg", live,
                row.measured.time, row.measured.work);
  }

  print_header("Store-family sweep: the I/Q/D functions of Figure 1 vary "
               "with the structure (read local, g = 2)");
  std::printf("%-10s %5s | %8s %8s | analytic Q(l)\n", "store", "l",
              "t:meas", "w:meas");
  print_rule();
  struct Family {
    const char* name;
    storage::StoreFactory make;
    const char* analytic;
  };
  const Family families[] = {
      {"hash",
       [] {
         return std::make_unique<storage::IndexedStore>(
             std::vector<std::size_t>{0});
       },
       "1"},
      {"ordered",
       [] {
         return std::make_unique<storage::IndexedStore>(
             std::vector<std::size_t>{0},
             storage::IndexedStore::Options{.ordered = true});
       },
       "1 + floor(log2(l+1))"},
      {"linear", [] { return std::make_unique<storage::LinearStore>(); },
       "l"},
  };
  for (const Family& family : families) {
    for (const std::size_t live : {15u, 127u, 1023u}) {
      ClusterConfig config;
      config.machines = 4;
      config.lambda = 1;
      config.cost_model = CostModel{kAlpha, kBeta};
      config.store_factory = [&family](ClassId) { return family.make(); };
      Cluster cluster(TaskCluster::schema(), config);
      cluster.assign_basic_support();
      const MachineId member = cluster.basic_support(ClassId{0}).front();
      const ProcessId p = cluster.process(member);
      for (std::size_t i = 0; i < live; ++i) {
        cluster.insert_sync(
            p, TaskCluster::tuple(static_cast<std::int64_t>(i), 16));
      }
      const auto before = cluster.ledger().snapshot();
      cluster.read_sync(p, TaskCluster::by_key(0));
      const CostTriple cost = cluster.ledger().since(before);
      std::printf("%-10s %5zu | %8.1f %8.1f | %s\n", family.name, live,
                  cost.time, cost.work, family.analytic);
    }
  }

  std::printf(
      "\nDeviations from the closed form, by design (Section 3.3 model vs the\n"
      "physical bus): (i) the paper's approx charges the single gathered\n"
      "response once per member while the bus carries it once, so reads and\n"
      "read&dels measure (g-1)*beta*|r| below the prediction; (ii) the\n"
      "leader's done-ack is a free self-send (-alpha); (iii) each fan-out\n"
      "message carries a 4-byte class header (+4*beta*g). The printed deltas\n"
      "decompose exactly into these three terms; the scaling in g, |o|, |sc|\n"
      "and |r| matches the table's shape throughout.\n");
  return 0;
}
