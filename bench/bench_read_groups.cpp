// E7 — Section 4.3: read groups.
//
// "Since the size of the write groups is unbounded, and a read entails no
// changes to the memory, there is some inefficiency involved in gcasting the
// read requests to all members of the write groups. ... it suffices to gcast
// read requests only to the members of the read group [of size <= lambda+1]."
//
// Grows the write group from lambda+1 to n and measures the per-read message
// cost and work with read groups on and off: with rg the cost stays flat at
// the lambda+1 level; without it both grow linearly with |wg|.
#include "bench/bench_util.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

struct Measurement {
  Cost msg = 0;
  Cost work = 0;
};

Measurement read_cost(std::size_t wg_size, bool use_read_groups,
                      std::size_t machines, std::size_t lambda,
                      std::size_t segments = 1) {
  ClusterConfig config;
  config.machines = machines;
  config.lambda = lambda;
  config.runtime.read_route = use_read_groups ? ReadRoute::kBasicSupport
                                              : ReadRoute::kWriteGroup;
  if (segments > 1) {
    // Segmented variant: same workload over a bridged LAN. The write group
    // still grows from the low ids (segment 0) while the reader sits on the
    // far segment, so every remote read pays bridge crossings — read groups
    // cap how many.
    config.topology =
        net::Topology::even(segments, machines, CostModel{},
                            /*bridge_alpha=*/60, /*bridge_beta=*/0.5);
  }
  Cluster cluster(TaskCluster::schema(), config);
  cluster.assign_basic_support();
  // Grow the write group beyond the basic support by direct joins.
  for (std::uint32_t m = 0;
       m < machines && cluster.groups().group_size("wg/task/0") < wg_size;
       ++m) {
    cluster.runtime(MachineId{m}).request_join(ClassId{0});
    cluster.settle();
  }
  const ProcessId writer = cluster.process(MachineId{0});
  cluster.insert_sync(writer, TaskCluster::tuple(1));

  // Reader on the last machine, kept out of the write group.
  const MachineId reader_machine{static_cast<std::uint32_t>(machines - 1)};
  PASO_REQUIRE(!cluster.groups().is_member("wg/task/0", reader_machine),
               "reader machine must stay outside the write group");
  const ProcessId reader = cluster.process(reader_machine);

  const auto before = cluster.ledger().snapshot();
  constexpr int kReads = 20;
  for (int i = 0; i < kReads; ++i) {
    cluster.read_sync(reader, TaskCluster::by_key(1));
  }
  const CostTriple cost = cluster.ledger().since(before);
  return Measurement{cost.msg_cost / kReads, cost.work / kReads};
}

}  // namespace

int main() {
  constexpr std::size_t kMachines = 18;
  constexpr std::size_t kLambda = 2;
  print_header("E7 / Section 4.3: read groups cap remote-read cost at "
               "lambda+1 = 3 servers (n = 18)");
  std::printf("%6s | %14s %10s | %14s %10s\n", "|wg|", "rg: msg/read",
              "work/read", "full: msg/read", "work/read");
  print_rule();
  for (const std::size_t wg : {3u, 5u, 8u, 12u, 16u}) {
    const Measurement with_rg = read_cost(wg, true, kMachines, kLambda);
    const Measurement without = read_cost(wg, false, kMachines, kLambda);
    std::printf("%6zu | %14.1f %10.2f | %14.1f %10.2f\n", wg, with_rg.msg,
                with_rg.work, without.msg, without.work);
    result_line("read_groups", "wg=" + std::to_string(wg) + "/rg=on", 1, 0,
                with_rg.msg, 0);
    result_line("read_groups", "wg=" + std::to_string(wg) + "/rg=off", 1, 0,
                without.msg, 0);
  }
  std::printf(
      "\nWith read groups the per-read cost is flat in |wg| (the request\n"
      "reaches only lambda+1 = 3 members of the basic support); without\n"
      "them it grows linearly — the exact inefficiency Section 4.3 calls\n"
      "out. Updates still pay |wg| by necessity; the adaptive algorithms of\n"
      "Section 5 manage that trade.\n");

  print_header("Same sweep on a 2-segment topology (reader across the "
               "bridge)");
  std::printf("%6s | %14s %10s | %14s %10s\n", "|wg|", "rg: msg/read",
              "work/read", "full: msg/read", "work/read");
  print_rule();
  for (const std::size_t wg : {3u, 8u, 16u}) {
    const Measurement with_rg = read_cost(wg, true, kMachines, kLambda, 2);
    const Measurement without = read_cost(wg, false, kMachines, kLambda, 2);
    std::printf("%6zu | %14.1f %10.2f | %14.1f %10.2f\n", wg, with_rg.msg,
                with_rg.work, without.msg, without.work);
    result_line("read_groups", "wg=" + std::to_string(wg) + "/rg=on/segs=2",
                1, 0, with_rg.msg, 0);
    result_line("read_groups", "wg=" + std::to_string(wg) + "/rg=off/segs=2",
                1, 0, without.msg, 0);
  }
  std::printf(
      "\nBridge crossings multiply the cost of every remote target, so the\n"
      "flat-vs-linear gap widens: capping the read group at lambda+1 also\n"
      "caps the number of crossings per read.\n");
  return 0;
}
