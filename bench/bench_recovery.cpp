// E8 — Sections 3.1 and 4.2: crash recovery and the initialization phase.
//
// "The time the initialization phase lasts depends on the set O of objects
// ... time(g-join(C)) should almost always be O(l) since all that is
// required is to copy the memory containing the data structure as is."
//
// Crashes a basic-support machine at varying class sizes l, recovers it, and
// measures the state-transfer bytes, the message cost, the single-server
// work (the paper's `time`), and the virtual-time duration of the
// initialization. All four must scale linearly in l. Also verifies that the
// group's queue blocks during the transfer (no communication processed by
// the group until the joiner is consistent).
#include "bench/bench_util.hpp"
#include "persist/wal.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

/// One crash/recover cycle: `live` objects before the crash, `staleness`
/// further inserts while the machine is down (exactly the suffix its durable
/// copy is missing), then recovery with the ledger metering only the
/// recovery phase.
struct RecoveryRow {
  double msg_cost = 0;
  std::uint64_t full_bytes = 0;   ///< "state-xfer" traffic (full blob)
  std::uint64_t delta_bytes = 0;  ///< "state-xfer-delta" traffic (log suffix)
  sim::SimTime duration = 0;
  bool complete = false;          ///< recovered replica holds live+staleness
};

RecoveryRow measure_recovery(std::size_t live, std::size_t staleness,
                             bool persist,
                             std::size_t checkpoint_every_bytes) {
  ClusterConfig config;
  config.machines = 5;
  config.lambda = 1;
  config.persistence.enabled = persist;
  config.persistence.checkpoint_every_bytes = checkpoint_every_bytes;
  Cluster cluster(TaskCluster::schema(), config);
  cluster.assign_basic_support();
  const auto support = cluster.basic_support(ClassId{0});
  const ProcessId writer = cluster.process(support[1]);
  for (std::size_t i = 0; i < live; ++i) {
    cluster.insert_sync(writer,
                        TaskCluster::tuple(static_cast<std::int64_t>(i)));
  }
  cluster.crash(support[0]);
  cluster.settle();
  for (std::size_t i = 0; i < staleness; ++i) {
    cluster.insert_sync(
        writer, TaskCluster::tuple(static_cast<std::int64_t>(live + i)));
  }
  cluster.ledger().reset();
  const auto before = cluster.ledger().snapshot();
  const sim::SimTime start = cluster.simulator().now();
  cluster.recover(support[0]);
  cluster.settle();
  RecoveryRow row;
  row.duration = cluster.simulator().now() - start;
  row.msg_cost = cluster.ledger().since(before).msg_cost;
  const auto& tags = cluster.ledger().per_tag();
  if (tags.contains("state-xfer")) {
    row.full_bytes = tags.at("state-xfer").bytes;
  }
  if (tags.contains("state-xfer-delta")) {
    row.delta_bytes = tags.at("state-xfer-delta").bytes;
  }
  row.complete =
      cluster.server(support[0]).live_count(ClassId{0}) == live + staleness;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sidecar = obs_sidecar_arg(argc, argv);
  print_header("E8 / g-join state transfer: initialization is Theta(l)");
  std::printf("%6s | %12s %12s %10s %12s | %12s\n", "l", "xfer bytes",
              "msg cost", "time", "duration", "bytes/l");
  print_rule();

  double prev_bytes_per_l = 0;
  const std::size_t largest = 5000u;
  for (const std::size_t live : {10u, 100u, 1000u, 5000u}) {
    ClusterConfig config;
    config.machines = 5;
    config.lambda = 1;
    // With --obs=PATH, meter the largest transfer with full observability:
    // the sidecar's vsync.state_transfer_* metrics give the recovery's
    // byte/duration story and trace_report reconciles its message cost
    // against the ledger.
    config.observe = !sidecar.empty() && live == largest;
    Cluster cluster(TaskCluster::schema(), config);
    cluster.assign_basic_support();
    const auto support = cluster.basic_support(ClassId{0});
    const ProcessId writer = cluster.process(support[1]);
    for (std::size_t i = 0; i < live; ++i) {
      cluster.insert_sync(writer,
                          TaskCluster::tuple(static_cast<std::int64_t>(i)));
    }

    cluster.crash(support[0]);
    cluster.settle();
    cluster.ledger().reset();
    if (cluster.observing()) cluster.tracer().clear();
    const auto before = cluster.ledger().snapshot();
    const sim::SimTime start = cluster.simulator().now();
    cluster.recover(support[0]);
    cluster.settle();
    const sim::SimTime duration = cluster.simulator().now() - start;
    const CostTriple cost = cluster.ledger().since(before);
    const auto& tags = cluster.ledger().per_tag();
    const auto xfer = tags.contains("state-xfer") ? tags.at("state-xfer")
                                                  : net::TrafficStats{};
    const double bytes_per_l =
        static_cast<double>(xfer.bytes) / static_cast<double>(live);
    std::printf("%6zu | %12llu %12.0f %10.0f %12.0f | %12.2f\n", live,
                static_cast<unsigned long long>(xfer.bytes), cost.msg_cost,
                cost.time, duration, bytes_per_l);
    result_line("recovery", "transfer/l=" + std::to_string(live), 1, 0,
                cost.msg_cost, xfer.bytes);
    if (prev_bytes_per_l > 0 &&
        (bytes_per_l > prev_bytes_per_l * 1.5 ||
         bytes_per_l < prev_bytes_per_l / 1.5)) {
      std::printf("  !! transfer bytes not linear in l\n");
      return 1;
    }
    prev_bytes_per_l = bytes_per_l;

    // The recovered replica must be complete.
    if (cluster.server(support[0]).live_count(ClassId{0}) != live) {
      std::printf("  !! recovered replica incomplete\n");
      return 1;
    }
    if (cluster.observing()) {
      write_obs_sidecar(cluster, sidecar);
      std::printf("observability sidecar: %s\n", sidecar.c_str());
    }
  }

  print_header("Group blocks during transfer (Section 4.2)");
  {
    ClusterConfig config;
    config.machines = 5;
    config.lambda = 1;
    Cluster cluster(TaskCluster::schema(), config);
    cluster.assign_basic_support();
    const auto support = cluster.basic_support(ClassId{0});
    const ProcessId writer = cluster.process(support[1]);
    for (int i = 0; i < 2000; ++i) {
      cluster.insert_sync(writer, TaskCluster::tuple(i));
    }
    cluster.crash(support[0]);
    cluster.settle();
    // Start recovery and immediately issue a read through the group: the
    // read must not complete before the transfer does.
    cluster.recover(support[0]);
    const sim::SimTime issue = cluster.simulator().now();
    const auto found = cluster.read_sync(cluster.process(MachineId{4}),
                                         TaskCluster::by_key(0));
    const sim::SimTime latency = cluster.simulator().now() - issue;
    std::printf("read issued during transfer: found=%s, latency=%.0f "
                "(>> a few hundred cost units: it waited for the join)\n",
                found ? "yes" : "no", latency);
  }

  print_header("Durable recovery: full transfer vs local replay + delta");
  std::printf(
      "With per-machine WAL + checkpoints (src/persist) a recovering machine\n"
      "replays its own disk and only fetches the ops it missed while down:\n"
      "transfer shrinks from O(l) to O(delta).\n\n");
  // Analytic per-record transfer size: a delta blob carries each missed op
  // exactly as framed on disk.
  PasoObject sample;
  sample.fields = TaskCluster::tuple(0);
  const std::size_t record_bytes =
      persist::kWalFrameBytes + StoreMsg{ClassId{0}, sample}.wire_size();
  std::printf("%6s %6s | %6s | %12s %12s %12s | %12s %10s\n", "l", "delta",
              "mode", "xfer bytes", "predicted", "msg cost", "duration",
              "speedup");
  print_rule();

  // Large checkpoint threshold: the donor must not compact past the
  // joiner's position mid-experiment (staleness stays within the log).
  const std::size_t kBigCheckpoint = 4u << 20;
  double full_cost_10k = 0;
  double delta_cost_10k_fresh = 0;
  for (const std::size_t live : {1000u, 10000u}) {
    const RecoveryRow full =
        measure_recovery(live, 16, /*persist=*/false, kBigCheckpoint);
    PASO_REQUIRE(full.complete, "full recovery left the replica incomplete");
    std::printf("%6zu %6u | %6s | %12llu %12s %12.0f | %12.0f %10s\n", live,
                16u, "full", static_cast<unsigned long long>(full.full_bytes),
                "-", full.msg_cost, full.duration, "1.0x");
    result_line("recovery", "full/l=" + std::to_string(live), 1, 0,
                full.msg_cost, full.full_bytes);
    if (live == 10000u) full_cost_10k = full.msg_cost;

    for (const std::size_t staleness : {16u, 64u, 256u, 1024u}) {
      const RecoveryRow delta =
          measure_recovery(live, staleness, /*persist=*/true, kBigCheckpoint);
      PASO_REQUIRE(delta.complete,
                   "delta recovery left the replica incomplete");
      PASO_REQUIRE(delta.delta_bytes > 0 && delta.full_bytes == 0,
                   "delta recovery fell back to a full transfer");
      // O(delta) prediction: blob header + each missed record as framed.
      const std::size_t predicted = 24 + staleness * record_bytes;
      const double speedup =
          full.msg_cost / std::max(delta.msg_cost, 1.0);
      std::printf("%6zu %6zu | %6s | %12llu %12zu %12.0f | %12.0f %9.1fx\n",
                  live, staleness, "delta",
                  static_cast<unsigned long long>(delta.delta_bytes),
                  predicted, delta.msg_cost, delta.duration, speedup);
      result_line("recovery",
                  "delta/l=" + std::to_string(live) +
                      "/d=" + std::to_string(staleness),
                  1, 0, delta.msg_cost, delta.delta_bytes);
      if (live == 10000u && staleness == 16u) {
        delta_cost_10k_fresh = delta.msg_cost;
      }
    }
  }
  PASO_REQUIRE(
      full_cost_10k >= 5 * delta_cost_10k_fresh,
      "delta+replay must beat full transfer by >=5x at l=10k, near-fresh");
  std::printf(
      "\nl=10k near-fresh: full=%.0f vs delta=%.0f msg-cost (%.1fx)\n",
      full_cost_10k, delta_cost_10k_fresh,
      full_cost_10k / std::max(delta_cost_10k_fresh, 1.0));

  print_header("Compaction horizon: a too-stale joiner falls back to full");
  {
    // Tiny checkpoint threshold: the survivor checkpoints (and compacts its
    // log) many times while the machine is down, moving the delta horizon
    // past the joiner's durable position — the donor must refuse the delta
    // and ship the full blob instead.
    const RecoveryRow stale =
        measure_recovery(1000, 1024, /*persist=*/true, /*ckpt=*/8 * 1024);
    PASO_REQUIRE(stale.complete, "fallback recovery incomplete");
    PASO_REQUIRE(stale.full_bytes > 0 && stale.delta_bytes == 0,
                 "stale joiner should have fallen back to a full transfer");
    std::printf("l=1000, delta=1024, checkpoint_every=8KiB: full fallback, "
                "%llu bytes, msg cost %.0f\n",
                static_cast<unsigned long long>(stale.full_bytes),
                stale.msg_cost);
    result_line("recovery", "stale-fallback/l=1000", 1, 0, stale.msg_cost,
                stale.full_bytes);
  }

  std::printf(
      "\nTransfer bytes, message cost, per-server work and wall duration all\n"
      "scale linearly in l — the paper's O(l) initialization phase, and the\n"
      "physical origin of the join cost K in Section 5. With durable\n"
      "persistence the transfer term drops to O(delta): the log suffix the\n"
      "machine missed while down, bounded by the donor's compaction horizon.\n");
  return 0;
}
