// paso_repl: an interactive / scriptable shell over a PASO cluster.
//
// Drives every public primitive from a command line, which makes it both a
// live demo and a handy debugging harness. Reads commands from stdin, one
// per line; `help` lists them. Example session:
//
//   $ ./paso_repl
//   > insert 0 7 hello
//   inserted M0.p0#0
//   > read 3 7
//   M0.p0#0(7, "hello")
//   > crash 1
//   > read 3 7          # still answered: replicas survive
//   > recover 1
//   > check
//   semantics: clean
//
// Tuples are (int key, text payload) in class "kv" (4 hash partitions).
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/latency.hpp"
#include "example_util.hpp"
#include "paso/cluster.hpp"
#include "semantics/checker.hpp"

using namespace paso;

namespace {

void print_help() {
  std::cout <<
      "commands:\n"
      "  insert <machine> <key> <text...>   insert a tuple\n"
      "  read <machine> <key|*> [prefix]    non-blocking read\n"
      "  readdel <machine> <key|*>          destructive read\n"
      "  readwait <machine> <key> <timeout> blocking read (markers)\n"
      "  crash <machine>                    crash a machine\n"
      "  recover <machine>                  recover a crashed machine\n"
      "  settle [duration]                  run the simulator / quiesce\n"
      "  members                            write-group membership per class\n"
      "  topology                           segment map, per-bus load, crossings\n"
      "  stats                              cost ledger + latency summary\n"
      "  persist-stats                      per-machine WAL/checkpoint totals\n"
      "  check                              run the semantics checker\n"
      "  help | quit\n";
}

SearchCriterion make_criterion(const std::string& key_token,
                               const std::string& prefix) {
  SearchCriterion sc;
  if (key_token == "*") {
    sc.fields.emplace_back(TypedAny{FieldType::kInt});
  } else {
    // Build the pattern in two steps; GCC 12 raises a spurious
    // -Wmaybe-uninitialized on the inlined one-liner.
    Exact exact;
    exact.value = Value{std::stoll(key_token)};
    sc.fields.emplace_back(std::move(exact));
  }
  if (prefix.empty()) {
    sc.fields.emplace_back(TypedAny{FieldType::kText});
  } else {
    sc.fields.emplace_back(TextPrefix{prefix});
  }
  return sc;
}

}  // namespace

int main(int argc, char** argv) {
  Schema schema({ClassSpec{"kv", {FieldType::kInt, FieldType::kText}, 0, 4}});
  ClusterConfig config;
  config.machines = 6;
  config.lambda = 1;
  // Durable disks on: a `crash` + `recover` here replays the machine's WAL
  // and rejoins via a delta transfer — watch it with `persist-stats`.
  config.persistence.enabled = true;
  // `--transport=threaded|socket` runs the shell on a real-clock transport:
  // durations become wall microseconds, ops run on real worker threads (or
  // machine processes) instead of virtual time.
  config.transport = examples::transport_from_args(argc, argv);
  const bool real_clock = config.transport != TransportKind::kSim;
  // `--segments N` splits the bus into N bridged segments (try 2 and watch
  // `topology` after a few cross-segment reads).
  std::size_t segments = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--segments" && i + 1 < argc) {
      segments = static_cast<std::size_t>(std::stoul(argv[++i]));
    }
  }
  if (segments > 1) {
    config.topology = net::Topology::even(segments, config.machines,
                                          config.cost_model,
                                          /*bridge_alpha=*/60,
                                          /*bridge_beta=*/0.5);
  }
  Cluster cluster(std::move(schema), config);
  if (segments > 1) {
    cluster.assign_placement_aware_support();
  } else {
    cluster.assign_basic_support();
  }
  std::cout << "PASO repl: " << config.machines
            << " machines, lambda=" << config.lambda << ", " << segments
            << " bus segment" << (segments == 1 ? "" : "s") << ", "
            << examples::transport_name(config.transport)
            << " transport, persistence on. Type `help` for commands.\n";

  std::string line;
  while (std::cout << "> " << std::flush, std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') continue;
    try {
      if (cmd == "quit" || cmd == "exit") break;
      if (cmd == "help") {
        print_help();
      } else if (cmd == "insert") {
        std::uint32_t m;
        std::int64_t key;
        in >> m >> key;
        std::string text;
        std::getline(in, text);
        if (!text.empty() && text.front() == ' ') text.erase(0, 1);
        const ProcessId p = cluster.process(MachineId{m});
        bool done = false;
        ObjectId id{};
        // Issue under the stack lock (a plain call on the sim), then wait
        // for the completion: the fabric reports it under the same lock.
        cluster.transport().run_exclusive([&] {
          id = cluster.runtime(p.machine)
                   .insert(p, {Value{key}, Value{text}},
                           [&done] { done = true; });
        });
        if (real_clock) {
          cluster.real_clock_transport().quiesce([&done] { return done; });
        } else {
          cluster.simulator().run_while_pending([&done] { return done; });
        }
        std::cout << "inserted " << id << "\n";
      } else if (cmd == "read" || cmd == "readdel") {
        std::uint32_t m;
        std::string key_token, prefix;
        in >> m >> key_token >> prefix;
        const ProcessId p = cluster.process(MachineId{m});
        const auto sc = make_criterion(key_token, prefix);
        const auto result = cmd == "read" ? cluster.read_sync(p, sc)
                                          : cluster.read_del_sync(p, sc);
        std::cout << (result ? object_to_string(*result) : "fail") << "\n";
      } else if (cmd == "readwait") {
        std::uint32_t m;
        std::string key_token;
        double timeout = 10000;
        in >> m >> key_token >> timeout;
        const ProcessId p = cluster.process(MachineId{m});
        const auto result = cluster.read_blocking_sync(
            p, make_criterion(key_token, ""), BlockingMode::kMarker,
            cluster.transport().now() + timeout);
        std::cout << (result ? object_to_string(*result) : "fail (timeout)")
                  << "\n";
      } else if (cmd == "crash") {
        std::uint32_t m;
        in >> m;
        cluster.crash(MachineId{m});
        cluster.settle();
        std::cout << "M" << m << " crashed (detected)\n";
      } else if (cmd == "recover") {
        std::uint32_t m;
        in >> m;
        cluster.recover(MachineId{m});
        cluster.settle();
        std::cout << "M" << m << " recovered and re-initialized\n";
      } else if (cmd == "settle") {
        double duration = 0;
        if (in >> duration) {
          cluster.settle_for(duration);
        } else {
          cluster.settle();
        }
        std::cout << "t=" << cluster.transport().now() << "\n";
      } else if (cmd == "members") {
        for (std::uint32_t c = 0; c < cluster.schema().class_count(); ++c) {
          const auto view =
              cluster.groups().view_of(cluster.schema().group_name(ClassId{c}));
          std::cout << cluster.schema().group_name(ClassId{c}) << ": ";
          for (const MachineId member : view.members) {
            std::cout << member << (cluster.is_up(member) ? " " : "(down) ");
          }
          std::cout << "\n";
        }
      } else if (cmd == "topology") {
        if (real_clock) {
          auto& transport = cluster.real_clock_transport();
          std::cout << "per-segment bus stats are sim-transport only; "
                    << "crossings=" << transport.crossings()
                    << " msgs=" << transport.messages() << "\n";
          continue;
        }
        const auto& net = cluster.network();
        const auto& topo = net.topology();
        const double now = cluster.simulator().now();
        for (std::uint32_t s = 0; s < net.segment_count(); ++s) {
          const auto& seg = net.segment_stats(s);
          const CostModel& model = topo.segment_model(s);
          std::cout << "seg " << s << ": alpha=" << model.alpha
                    << " beta=" << model.beta << " machines=[";
          bool first = true;
          for (std::uint32_t m = 0; m < config.machines; ++m) {
            if (topo.segment_of(MachineId{m}) != s) continue;
            std::cout << (first ? "" : " ") << m;
            first = false;
          }
          std::cout << "] msgs=" << seg.messages << " bytes=" << seg.bytes
                    << " util=" << (now > 0 ? seg.busy / now : 0.0) << "\n";
        }
        if (net.bridge_count() > 0) {
          std::cout << "bridges: " << net.bridge_count()
                    << " (alpha=" << topo.bridge_alpha()
                    << " beta=" << topo.bridge_beta() << ")"
                    << " crossings=" << net.crossings()
                    << " partition-dropped=" << net.partition_dropped()
                    << "\n";
        } else {
          std::cout << "single bus, no bridges\n";
        }
      } else if (cmd == "stats") {
        // Under a real-clock transport the fabric may be mid-delivery;
        // snapshot ledger + history under the stack lock (plain call on sim).
        cluster.transport().run_exclusive([&] {
          std::cout << "msg cost: " << cluster.ledger().total_msg_cost()
                    << ", work: " << cluster.ledger().total_work()
                    << ", t=" << cluster.transport().now() << "\n";
          const auto report = analysis::latency_report(cluster.history());
          auto line_for = [](const char* name, const Summary& s) {
            if (s.empty()) return;
            std::cout << "  " << name << ": n=" << s.count()
                      << " mean=" << s.mean() << " p95=" << s.percentile(0.95)
                      << "\n";
          };
          line_for("insert  ", report.insert);
          line_for("read    ", report.read);
          line_for("read&del", report.read_del);
          for (const auto& [tag, stats] : cluster.ledger().per_tag()) {
            std::cout << "  [" << tag << "] n=" << stats.messages
                      << " bytes=" << stats.bytes << " cost=" << stats.cost
                      << "\n";
          }
        });
      } else if (cmd == "persist-stats") {
        for (std::uint32_t m = 0; m < config.machines; ++m) {
          auto& manager = cluster.persistence(MachineId{m});
          const auto& s = manager.stats();
          std::cout << "M" << m << ": appends=" << s.appends << " ("
                    << s.append_bytes << "B) checkpoints=" << s.checkpoints
                    << " compactions=" << s.compactions
                    << " replays=" << s.replays << " ("
                    << s.replayed_records << " records)"
                    << " deltas=" << s.delta_captures << "/"
                    << s.delta_refusals << " refused"
                    << " corruptions=" << s.corruptions_detected << "\n";
          for (std::uint32_t c = 0; c < cluster.schema().class_count(); ++c) {
            const ClassId cls{c};
            const std::size_t log = manager.log_bytes(cls);
            const std::size_t ckpt = manager.checkpoint_bytes_on_disk(cls);
            if (log == 0 && ckpt == 0) continue;
            std::cout << "    c" << c << ": log=" << log << "B ckpt=" << ckpt
                      << "B lsn=" << manager.durable_lsn(cls) << " epoch="
                      << manager.checkpoint_epoch(cls) << "\n";
          }
        }
      } else if (cmd == "check") {
        const auto result = semantics::check_history(cluster.history());
        if (result.ok()) {
          std::cout << "semantics: clean (" << cluster.history().size()
                    << " ops)\n";
        } else {
          std::cout << "semantics: " << result.violations.size()
                    << " violations; first: " << result.violations.front()
                    << "\n";
        }
      } else {
        std::cout << "unknown command `" << cmd << "`; try `help`\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  return 0;
}
