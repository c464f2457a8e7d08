// E9 — Section 5's objective, end to end: total work (and message cost) of
// the whole system under locality phase changes, comparing
//   * static-minimal   — only the lambda+1 basic-support replicas,
//   * static-eager     — every machine replicates every class,
//   * adaptive (Basic) — the Section 5.1 counter algorithm,
// across workload mixes. The shape to reproduce: adaptive ~tracks the better
// static policy in every regime, eager wins only under pure reads, minimal
// wins only under pure updates, and adaptive is the best or near-best
// overall — the case for adaptive replication the paper builds.
#include "adaptive/basic_policy.hpp"
#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "semantics/checker.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

enum class Policy { kMinimal, kEager, kAdaptive };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kMinimal:
      return "minimal";
    case Policy::kEager:
      return "eager";
    case Policy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

struct Totals {
  Cost msg = 0;
  Cost work = 0;
  Cost combined() const { return msg + work; }
};

/// Phased workload: in each phase one "hot" machine reads intensely while a
/// writer churns with read&del/insert pairs at the given update share. The
/// hot machine rotates between phases (locality shifts). A non-empty
/// `sidecar` turns observability on and writes the metric/span/msg JSONL
/// there afterwards (tools/trace_report consumes it).
Totals run_workload(Policy policy, double update_share, std::uint64_t seed,
                    const std::string& sidecar = {}) {
  ClusterConfig config;
  config.machines = 8;
  config.lambda = 1;
  config.record_history = false;  // long run: skip history accounting
  config.observe = !sidecar.empty();
  Cluster cluster(TaskCluster::schema(), config);
  cluster.assign_basic_support();
  if (policy == Policy::kAdaptive) {
    adaptive::install_basic_policies(cluster,
                                     adaptive::BasicPolicyOptions{8, 1, false});
  } else if (policy == Policy::kEager) {
    for (std::uint32_t m = 0; m < cluster.machine_count(); ++m) {
      cluster.runtime(MachineId{m}).request_join(ClassId{0});
    }
    cluster.settle();
  }

  Rng rng(seed);
  const ProcessId writer = cluster.process(MachineId{0});
  std::int64_t next_key = 1000;
  std::int64_t oldest_key = 1000;
  for (int i = 0; i < 8; ++i) {
    cluster.insert_sync(writer, TaskCluster::tuple(next_key++));
  }
  cluster.insert_sync(writer, TaskCluster::tuple(7));
  cluster.ledger().reset();
  // The sidecar's reconciliation needs the tracer and the ledger to cover
  // the same interval: drop the warm-up traffic from both.
  if (cluster.observing()) cluster.tracer().clear();

  for (int phase = 0; phase < 6; ++phase) {
    const MachineId hot{static_cast<std::uint32_t>(2 + phase % 5)};
    const ProcessId reader = cluster.process(hot);
    for (int op = 0; op < 150; ++op) {
      if (rng.uniform01() < update_share) {
        cluster.read_del_sync(writer, TaskCluster::by_key(oldest_key++));
        cluster.insert_sync(writer, TaskCluster::tuple(next_key++));
      } else {
        cluster.read_sync(reader, TaskCluster::by_key(7));
      }
    }
    cluster.settle();
  }
  if (cluster.observing()) write_obs_sidecar(cluster, sidecar);
  return Totals{cluster.ledger().total_msg_cost(),
                cluster.ledger().total_work()};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sidecar = obs_sidecar_arg(argc, argv);
  print_header("E9 / Section 5 objective: total work + msg cost, adaptive "
               "vs static (n=8, lambda=1, K=8)");
  std::printf("%12s | %12s %12s %12s | %s\n", "update share", "minimal",
              "eager", "adaptive", "winner");
  print_rule();

  for (const double update_share : {0.0, 0.05, 0.2, 0.5, 0.8, 1.0}) {
    Totals totals[3];
    double ns_per_op[3];
    // 900 client ops per workload (6 phases x 150); the wall-clock column is
    // informational — the gated quantity stays the model msg cost.
    ns_per_op[0] = time_ns_per_op(
        900, [&] { totals[0] = run_workload(Policy::kMinimal, update_share, 1); });
    ns_per_op[1] = time_ns_per_op(
        900, [&] { totals[1] = run_workload(Policy::kEager, update_share, 1); });
    ns_per_op[2] = time_ns_per_op(900, [&] {
      totals[2] = run_workload(Policy::kAdaptive, update_share, 1);
    });
    int winner = 0;
    for (int i = 1; i < 3; ++i) {
      if (totals[i].combined() < totals[winner].combined()) winner = i;
    }
    std::printf("%12.2f | %12.0f %12.0f %12.0f | %s\n", update_share,
                totals[0].combined(), totals[1].combined(),
                totals[2].combined(),
                policy_name(static_cast<Policy>(winner)));
    for (int i = 0; i < 3; ++i) {
      char share[16];
      std::snprintf(share, sizeof share, "%.2f", update_share);
      result_line("adaptive_e2e",
                  std::string(policy_name(static_cast<Policy>(i))) +
                      "/update_share=" + share,
                  900, ns_per_op[i], totals[i].msg, 0);
    }
  }

  // With --obs=PATH, one instrumented re-run of a mixed regime: full per-op
  // tracing + metrics into a sidecar that tools/trace_report decomposes and
  // reconciles against the CostLedger.
  if (!sidecar.empty()) {
    run_workload(Policy::kAdaptive, 0.2, 1, sidecar);
    std::printf("\nobservability sidecar: %s (feed to tools/trace_report)\n",
                sidecar.c_str());
  }

  std::printf(
      "\nThe crossover: eager wins only at update share ~0 (pure reads),\n"
      "minimal wins at high update share, and adaptive tracks whichever is\n"
      "better, staying within a constant factor of the best at every mix —\n"
      "the guarantee Theorem 2 formalizes per (machine, class).\n");
  return 0;
}
