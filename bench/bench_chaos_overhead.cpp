// Chaos overhead: what fault tolerance costs when faults actually happen.
//
// Runs one fixed robust workload twice — fault-free, and under a fixed
// seeded ChaosSchedule (crashes with recovery, drop windows, delay windows)
// — and compares total message cost and total work. The inflation factors
// quantify the price of retransmissions, robust-op retries, duplicate
// suppression and state-transfer traffic; the run aborts if either history
// violates the Section 2 axioms, so the numbers are only ever reported for
// semantically sound executions. Emits one JSON line for dashboards.
#include <cinttypes>

#include "bench/bench_util.hpp"
#include "paso/chaos.hpp"
#include "semantics/checker.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

constexpr std::size_t kMachines = 6;
constexpr std::uint32_t kDriver = 5;
constexpr std::uint64_t kScheduleSeed = 42;

struct Totals {
  double msg_cost = 0;
  double work = 0;
  double duration = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t crashes = 0;
  std::size_t inflight = 0;
  bool sound = false;
};

Totals run_workload(bool with_chaos) {
  ClusterConfig cfg;
  cfg.machines = kMachines;
  cfg.lambda = 2;
  cfg.vsync.retransmit_timeout = 300;
  cfg.runtime.op_deadline = 4000;
  cfg.runtime.retry_backoff = 500;
  cfg.runtime.pessimistic_timeouts = true;
  Cluster cluster(TaskCluster::schema(), cfg);
  cluster.assign_basic_support();

  ChaosSchedule::GenOptions gen;
  gen.horizon = 12000;
  gen.detection_delay = cluster.groups().options().failure_detection_delay;
  gen.immune = {kDriver};
  ChaosEngine engine(
      cluster, ChaosSchedule::generate(kScheduleSeed, kMachines, gen));
  if (with_chaos) engine.start();

  Rng rng(7);  // same op sequence in both runs
  const ProcessId driver = cluster.process(MachineId{kDriver});
  PasoRuntime& home = cluster.runtime(MachineId{kDriver});
  for (int round = 0; round < 120; ++round) {
    const std::int64_t key = static_cast<std::int64_t>(rng.index(16));
    const double dice = rng.uniform01();
    if (dice < 0.5) {
      home.insert_robust(driver, TaskCluster::tuple(key));
    } else if (dice < 0.8) {
      home.read_robust(driver, TaskCluster::by_key(key), [](OpReport) {});
    } else {
      home.read_del_robust(driver, TaskCluster::by_key(key), [](OpReport) {});
    }
    // Pace the workload below bus saturation: the serializing bus otherwise
    // backs up until latency exceeds the retry backoff and the fault-free
    // baseline fills with retry traffic, drowning the signal.
    cluster.settle_for(400);
  }
  cluster.settle_for(12000);
  cluster.settle();

  Totals t;
  t.msg_cost = cluster.ledger().total_msg_cost();
  t.work = cluster.ledger().total_work();
  t.duration = cluster.simulator().now();
  t.retransmits = cluster.groups().retransmits();
  t.crashes = engine.crashes();
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    t.retries += cluster.runtime(MachineId{m}).retries();
    t.timeouts += cluster.runtime(MachineId{m}).timeouts();
    t.inflight += cluster.runtime(MachineId{m}).inflight();
    t.duplicates += cluster.server(MachineId{m}).duplicates_refused();
  }
  t.sound = semantics::check_history(cluster.history(), cluster.run_context())
                .ok();
  return t;
}

}  // namespace

int main() {
  print_header("Chaos overhead: msg-cost / work inflation under faults");

  const Totals clean = run_workload(false);
  const Totals chaos = run_workload(true);

  std::printf("%12s | %12s %12s %8s %8s %8s %6s\n", "run", "msg cost",
              "work", "rexmit", "retries", "dups", "sound");
  print_rule();
  std::printf("%12s | %12.0f %12.0f %8" PRIu64 " %8" PRIu64 " %8" PRIu64
              " %6s\n",
              "fault-free", clean.msg_cost, clean.work, clean.retransmits,
              clean.retries, clean.duplicates, clean.sound ? "yes" : "NO");
  std::printf("%12s | %12.0f %12.0f %8" PRIu64 " %8" PRIu64 " %8" PRIu64
              " %6s\n",
              "chaos", chaos.msg_cost, chaos.work, chaos.retransmits,
              chaos.retries, chaos.duplicates, chaos.sound ? "yes" : "NO");

  const double msg_inflation =
      clean.msg_cost > 0 ? chaos.msg_cost / clean.msg_cost : 0;
  const double work_inflation = clean.work > 0 ? chaos.work / clean.work : 0;
  std::printf(
      "\nschedule seed %" PRIu64 ": %" PRIu64
      " crashes applied; msg-cost x%.2f, work x%.2f\n",
      kScheduleSeed, chaos.crashes, msg_inflation, work_inflation);
  std::printf(
      "The overhead is retransmissions into drop windows, robust-op\n"
      "retries across outages, and the state transfers behind each\n"
      "recovery; duplicate suppression keeps the retries harmless.\n");

  result_line("chaos_overhead", "fault-free", 1, 0, clean.msg_cost, 0,
              clean.work);
  result_line("chaos_overhead", "chaos", 1, 0, chaos.msg_cost, 0, chaos.work);
  JsonLine json("chaos_overhead_detail");
  json.field("config", "seed=" + std::to_string(kScheduleSeed))
      .field("seed", kScheduleSeed)
      .field("clean_msg_cost", clean.msg_cost)
      .field("clean_work", clean.work)
      .field("chaos_msg_cost", chaos.msg_cost)
      .field("chaos_work", chaos.work)
      .field("msg_inflation", msg_inflation)
      .field("work_inflation", work_inflation)
      .field("crashes", chaos.crashes)
      .field("retransmits", chaos.retransmits)
      .field("retries", chaos.retries)
      .field("timeouts", chaos.timeouts)
      .field("duplicates_refused", chaos.duplicates)
      .field("sound", std::string(clean.sound && chaos.sound ? "true"
                                                             : "false"));
  json.emit();

  if (!clean.sound || !chaos.sound) {
    std::printf("!! axiom violation — numbers above are not meaningful\n");
    return 1;
  }
  if (clean.inflight != 0 || chaos.inflight != 0) {
    std::printf("!! operations still in flight after settle\n");
    return 1;
  }
  if (chaos.crashes == 0) {
    std::printf("!! chaos schedule applied no crashes\n");
    return 1;
  }
  return 0;
}
