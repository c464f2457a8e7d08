// Ablation — read-group rotation for load balancing.
//
// The paper optimizes total work and message cost and explicitly defers
// response time to a load-balancing scheme [13]. This bench implements the
// obvious one — rotate the read group across the write group's members —
// and measures the per-server work distribution of a read-heavy workload:
// with the static basic-support read group, the lambda+1 basic members
// absorb all query work; with rotation, work spreads across every replica
// at identical total cost.
//
// The second experiment makes the workload skewed: a background reader
// keeps hammering the static basic-support pair while the measured reader
// uses either blind rotation (spreads its reads uniformly, hot members
// included) or sticky two-choice rotation (ReadRoute::kSticky:
// anchor on a window, probe one alternative per read, move only when the
// probe is measurably lighter). Sticky steers the measured reads away from
// the hot pair, so the most-loaded replica ends up strictly lighter.
#include "bench/bench_util.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

struct Distribution {
  Cost total = 0;
  Cost max_server = 0;
  double imbalance = 0;  // max / mean over write-group members
};

Distribution run(bool rotate, std::size_t wg_size) {
  ClusterConfig config;
  config.machines = 10;
  config.lambda = 1;
  config.runtime.read_route =
      rotate ? ReadRoute::kRotating : ReadRoute::kBasicSupport;
  Cluster cluster(TaskCluster::schema(), config);
  cluster.assign_basic_support();
  for (std::uint32_t m = 0; m < wg_size; ++m) {
    cluster.runtime(MachineId{m}).request_join(ClassId{0});
  }
  cluster.settle();
  const ProcessId writer = cluster.process(MachineId{0});
  cluster.insert_sync(writer, TaskCluster::tuple(1));
  cluster.ledger().reset();

  const ProcessId reader = cluster.process(MachineId{9});
  for (int i = 0; i < 300; ++i) {
    cluster.read_sync(reader, TaskCluster::by_key(1));
  }

  Distribution dist;
  Cost sum = 0;
  for (std::uint32_t m = 0; m < wg_size; ++m) {
    const Cost w = cluster.ledger().work_of(MachineId{m});
    sum += w;
    dist.max_server = std::max(dist.max_server, w);
  }
  dist.total = sum;
  dist.imbalance = dist.max_server / (sum / static_cast<Cost>(wg_size));
  return dist;
}

struct SkewResult {
  Cost max_server = 0;  // most-loaded write-group member
  Cost hot_pair = 0;    // the basic-support pair the background load targets
};

SkewResult run_skewed(bool sticky) {
  constexpr std::size_t kWg = 6;
  ClusterConfig config;
  config.machines = 10;
  config.lambda = 1;
  config.runtime.read_route = ReadRoute::kRotating;
  Cluster cluster(TaskCluster::schema(), config);
  cluster.assign_basic_support();
  for (std::uint32_t m = 0; m < kWg; ++m) {
    cluster.runtime(MachineId{m}).request_join(ClassId{0});
  }
  cluster.settle();
  // Background reader: static read group, i.e. every one of its reads lands
  // on the basic-support pair {0, 1}.
  cluster.runtime(MachineId{8}).mutable_config().read_route =
      ReadRoute::kBasicSupport;
  cluster.runtime(MachineId{9}).mutable_config().read_route =
      sticky ? ReadRoute::kSticky : ReadRoute::kRotating;

  cluster.insert_sync(cluster.process(MachineId{0}), TaskCluster::tuple(1));
  cluster.ledger().reset();

  const ProcessId hot = cluster.process(MachineId{8});
  const ProcessId measured = cluster.process(MachineId{9});
  for (int i = 0; i < 150; ++i) {
    // 2:1 skew, interleaved so the load signal builds up as sticky adapts.
    cluster.read_sync(hot, TaskCluster::by_key(1));
    cluster.read_sync(hot, TaskCluster::by_key(1));
    cluster.read_sync(measured, TaskCluster::by_key(1));
  }

  SkewResult out;
  for (std::uint32_t m = 0; m < kWg; ++m) {
    const Cost w = cluster.ledger().work_of(MachineId{m});
    out.max_server = std::max(out.max_server, w);
    if (m < 2) out.hot_pair = std::max(out.hot_pair, w);
  }
  return out;
}

}  // namespace

int main() {
  print_header("Ablation: read-group rotation (300 remote reads, lambda=1, "
               "rg size 2)");
  std::printf("%6s | %12s %12s %10s | %12s %12s %10s\n", "|wg|",
              "static: work", "max server", "imbalance", "rotate: work",
              "max server", "imbalance");
  print_rule();
  for (const std::size_t wg : {2u, 4u, 6u, 8u}) {
    const Distribution fixed = run(false, wg);
    const Distribution rotated = run(true, wg);
    std::printf("%6zu | %12.0f %12.0f %10.2f | %12.0f %12.0f %10.2f\n", wg,
                fixed.total, fixed.max_server, fixed.imbalance,
                rotated.total, rotated.max_server, rotated.imbalance);
    JsonLine("load_balance")
        .field("config", "wg=" + std::to_string(wg) + "/rotate")
        .field("ops", std::uint64_t{300})
        .field("ns_per_op", 0.0)
        .field("msg_cost", 0.0)
        .field("bytes", std::uint64_t{0})
        .field("work", rotated.max_server)
        .field("imbalance", rotated.imbalance)
        .emit();
  }
  std::printf(
      "\nTotal work is identical (the read group size is still lambda+1);\n"
      "rotation divides the per-server load by |wg|/(lambda+1) — imbalance\n"
      "drops from |wg|/(lambda+1) to ~1.0. Response time follows the busiest\n"
      "server on a loaded system, so this is the free latency win the paper\n"
      "points to via [13].\n");

  print_header("Skewed load: blind rotation vs sticky two-choice "
               "(background reader pins the basic pair, |wg| = 6)");
  const SkewResult blind = run_skewed(false);
  const SkewResult sticky = run_skewed(true);
  std::printf("%8s | %12s %12s\n", "variant", "max server", "hot pair");
  print_rule();
  std::printf("%8s | %12.0f %12.0f\n", "rotate", blind.max_server,
              blind.hot_pair);
  std::printf("%8s | %12.0f %12.0f\n", "sticky", sticky.max_server,
              sticky.hot_pair);
  result_line("load_balance", "wg=6/skew=rotate", 450, 0, 0, 0,
              blind.max_server);
  result_line("load_balance", "wg=6/skew=sticky", 450, 0, 0, 0,
              sticky.max_server);
  PASO_REQUIRE(sticky.max_server < blind.max_server,
               "sticky rotation must cut the max-replica load under skew");
  std::printf(
      "\nBlind rotation spreads the measured reads uniformly — a fraction\n"
      "of them keeps landing on the already-hot basic pair, so the busiest\n"
      "replica carries background plus rotated load. Sticky two-choice\n"
      "reads the per-replica work counters and anchors the read group away\n"
      "from the hot pair, cutting the max-replica load.\n");
  return 0;
}
