// E2 — Section 3.3: the gcast cost formula.
//
// Sweeps group size and message/response sizes and prints the measured bus
// cost of a gcast against the exact derivation
//   |g|(a + b|msg|) + |g|a + a + b|resp|
// and the paper's approximate closed form |g|(2a + b(|msg|+|resp|)).
// Also verifies the Section 5 premise that total message cost lower-bounds
// completion time on the serializing bus.
#include <any>

#include "bench/bench_util.hpp"
#include "net/bus_network.hpp"
#include "vsync/group_service.hpp"
#include "paso/cluster.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

constexpr Cost kAlpha = 10.0;
constexpr Cost kBeta = 1.0;

/// Minimal endpoint that returns a response of a fixed declared size.
class EchoEndpoint final : public vsync::GroupEndpoint {
 public:
  explicit EchoEndpoint(std::size_t response_bytes)
      : response_bytes_(response_bytes) {}

  vsync::GcastResult handle_gcast(const GroupName&,
                                  const vsync::Payload&) override {
    vsync::GcastResult result;
    result.response = std::string("r");
    result.response_bytes = response_bytes_;
    result.processing = 1.0;
    return result;
  }
  vsync::StateBlob capture_state(const GroupName&) override { return {}; }
  void install_state(const GroupName&, vsync::StateBlob) override {}
  void erase_state(const GroupName&) override {}
  void on_view_change(const GroupName&, const vsync::View&) override {}

 private:
  std::size_t response_bytes_;
};

struct Sample {
  Cost measured = 0;
  sim::SimTime elapsed = 0;
};

Sample run_gcast(std::size_t g, std::size_t msg_bytes,
                 std::size_t resp_bytes) {
  sim::Simulator simulator;
  net::BusNetwork network(simulator, CostModel{kAlpha, kBeta}, g + 1);
  vsync::GroupService service(network, {});
  std::vector<std::unique_ptr<EchoEndpoint>> endpoints;
  for (std::uint32_t m = 0; m < g + 1; ++m) {
    endpoints.push_back(std::make_unique<EchoEndpoint>(resp_bytes));
    service.register_endpoint(MachineId{m}, *endpoints.back());
  }
  for (std::uint32_t m = 0; m < g; ++m) {
    service.g_join("g", MachineId{m});
  }
  simulator.run();
  network.ledger().reset();

  const sim::SimTime start = simulator.now();
  bool done = false;
  service.gcast("g", MachineId{static_cast<std::uint32_t>(g)},
                vsync::Payload{std::string("m"), msg_bytes}, "bench",
                [&done](std::optional<std::any>) { done = true; });
  simulator.run_while_pending([&done] { return done; });
  return Sample{network.ledger().total_msg_cost(), simulator.now() - start};
}

/// Drive a 64-op same-class insert burst through a real cluster and return
/// the ledger's msg-cost for it, with batching on (window/max_batch) or off.
struct BurstResult {
  Cost msg_cost = 0;
  std::uint64_t bytes = 0;
  std::size_t ops = 0;
};

BurstResult run_burst(Cost alpha, sim::SimTime window, std::size_t max_batch) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.cost_model = CostModel{alpha, kBeta};
  cfg.runtime.batch_window = window;
  cfg.runtime.max_batch = max_batch;
  cfg.record_history = false;
  Cluster cluster(TaskCluster::schema(), cfg);
  cluster.assign_basic_support();
  const ProcessId driver = cluster.process(MachineId{3});
  PasoRuntime& home = cluster.runtime(MachineId{3});

  const auto before_cost = cluster.ledger().snapshot();
  std::uint64_t before_bytes = 0, after_bytes = 0;
  for (const auto& [tag, stats] : cluster.ledger().per_tag()) {
    before_bytes += stats.bytes;
  }
  BurstResult out;
  out.ops = 64;
  for (std::int64_t key = 0; key < 64; ++key) {
    home.insert(driver, TaskCluster::tuple(key));
  }
  cluster.settle();
  out.msg_cost = cluster.ledger().since(before_cost).msg_cost;
  for (const auto& [tag, stats] : cluster.ledger().per_tag()) {
    after_bytes += stats.bytes;
  }
  out.bytes = after_bytes - before_bytes;
  return out;
}

void batching_section() {
  print_header("Gcast batching: 64-op same-class burst, one 2*alpha a batch");
  std::printf("%6s %6s | %12s %12s | %7s\n", "alpha", "batch", "cost(off)",
              "cost(on)", "ratio");
  print_rule();
  for (const Cost alpha : {10.0, 64.0}) {
    for (const std::size_t max_batch : {16u, 64u}) {
      BurstResult off, on;
      const double ns_off =
          time_ns_per_op(64, [&] { off = run_burst(alpha, 0, max_batch); });
      const double ns_on =
          time_ns_per_op(64, [&] { on = run_burst(alpha, 50, max_batch); });
      const double ratio = off.msg_cost / on.msg_cost;
      std::printf("%6.0f %6zu | %12.0f %12.0f | %6.2fx\n", alpha, max_batch,
                  off.msg_cost, on.msg_cost, ratio);
      const std::string config = "burst64/alpha=" +
                                 std::to_string(static_cast<int>(alpha)) +
                                 "/max_batch=" + std::to_string(max_batch);
      result_line("gcast_batching", config + "/off", off.ops, ns_off,
                  off.msg_cost, off.bytes);
      result_line("gcast_batching", config + "/on", on.ops, ns_on,
                  on.msg_cost, on.bytes);
    }
  }
  std::printf(
      "\nBatching trades per-op latency (the coalescing window) for one\n"
      "2*alpha*|g| per batch instead of per op. The win scales with alpha:\n"
      "at alpha=10 the ~32-byte payloads dominate, at alpha=64 the latency\n"
      "term does — the regime the paper's cost model targets.\n");
}

}  // namespace

int main() {
  const CostModel model{kAlpha, kBeta};
  print_header("E2 / Section 3.3: gcast cost scaling (alpha=10, beta=1)");
  std::printf("%3s %6s %6s | %10s %10s %10s | %10s\n", "g", "|msg|", "|resp|",
              "exact", "approx", "measured", "elapsed");
  print_rule();
  for (const std::size_t g : {1u, 2u, 4u, 8u, 16u, 32u}) {
    for (const std::size_t msg : {16u, 256u}) {
      for (const std::size_t resp : {8u, 64u}) {
        Sample sample;
        const double ns_per_op =
            time_ns_per_op(1, [&] { sample = run_gcast(g, msg, resp); });
        std::printf("%3zu %6zu %6zu | %10.1f %10.1f %10.1f | %10.1f\n", g,
                    msg, resp, model.gcast(g, msg, resp),
                    model.gcast_approx(g, msg, resp), sample.measured,
                    sample.elapsed);
        result_line("gcast_scaling",
                    "g=" + std::to_string(g) + "/msg=" + std::to_string(msg) +
                        "/resp=" + std::to_string(resp),
                    1, ns_per_op, sample.measured, g * msg + resp);
        // Section 5 premise: bus time >= total message cost.
        if (sample.elapsed + 1e-9 < sample.measured) {
          std::printf("  !! completion time below message cost — model "
                      "violation\n");
          return 1;
        }
      }
    }
  }
  std::printf(
      "\nmeasured = exact - alpha (the leader's self-ack never crosses the\n"
      "bus). Cost grows linearly in |g| with slope 2*alpha + beta*|msg|,\n"
      "exactly the Section 3.3 derivation; the approx column overcounts the\n"
      "response fan-out. elapsed >= measured everywhere: total message cost\n"
      "lower-bounds completion time on a serializing bus.\n");
  batching_section();
  return 0;
}
