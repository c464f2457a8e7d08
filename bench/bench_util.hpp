// Small shared helpers for the benchmark binaries: fixed-width table
// printing and cluster construction shortcuts. Each bench binary regenerates
// one table/figure/theorem of the paper and prints predicted vs measured.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "paso/cluster.hpp"

namespace paso::bench {

/// Wall-clock nanoseconds per operation of `body`, which performs `ops`
/// operations. The shared timing primitive of every bench's ns_per_op
/// column; steady_clock so NTP slews can't produce negative latencies.
inline double time_ns_per_op(std::uint64_t ops,
                             const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(ops);
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// Accumulates one flat JSON object and prints it as a single line, so
/// benches can emit machine-readable results next to the human table.
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) {
    body_ = "{\"bench\":\"" + bench + "\"";
  }
  JsonLine& field(const std::string& name, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    body_ += ",\"" + name + "\":" + buffer;
    return *this;
  }
  JsonLine& field(const std::string& name, std::uint64_t value) {
    body_ += ",\"" + name + "\":" + std::to_string(value);
    return *this;
  }
  JsonLine& field(const std::string& name, const std::string& value) {
    body_ += ",\"" + name + "\":\"" + value + "\"";
    return *this;
  }
  void emit() const { std::printf("%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

/// The standard machine-readable result row every bench emits at least once:
///   {"bench":...,"config":...,"ops":...,"msg_cost":...,"bytes":...}
/// `config` names the measured variant (e.g. "indexed/size=10000"), `ops` is
/// how many operations the row aggregates, `msg_cost` the model's message
/// cost (0 for wall-clock-only micro benches) and `bytes` the wire bytes
/// moved (0 when not metered). `ns_per_op` — measured wall clock per op —
/// is emitted only when the bench actually metered it: a sim-only bench has
/// no wall axis, and a literal `"ns_per_op":0` in its row reads like "this
/// bench is infinitely fast" in every downstream report. bench_diff treats
/// absent and zero axes identically (skipped), so omission is free. A
/// nonzero `work` adds a `"work":...` field — the model's server-work total
/// (or whatever work scalar the bench gates, e.g. max per-replica load for
/// balance benches); bench_diff gates every one of msg_cost/work/bytes that
/// a baseline row carries as > 0. The baseline pipeline greps stdout for
/// lines starting `{"bench"` — keep this the only JSON the benches print.
inline void result_line(const std::string& bench, const std::string& config,
                        std::uint64_t ops, double ns_per_op, double msg_cost,
                        std::uint64_t bytes, double work = 0) {
  JsonLine line(bench);
  line.field("config", config).field("ops", ops);
  if (ns_per_op > 0) line.field("ns_per_op", ns_per_op);
  line.field("msg_cost", msg_cost).field("bytes", bytes);
  if (work > 0) line.field("work", work);
  line.emit();
}

/// The sidecar path given as `--obs=PATH`, or empty when the flag is absent
/// (then the bench writes no sidecar). Any other argument is an error.
inline std::string obs_sidecar_arg(int argc, char** argv) {
  const std::string flag = "--obs=";
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) != 0 || arg.size() == flag.size()) {
      std::fprintf(stderr, "usage: %s [--obs=PATH]\n", argv[0]);
      std::exit(2);
    }
    path = arg.substr(flag.size());
  }
  return path;
}

/// Dump the cluster's observability data as a JSONL sidecar next to the
/// bench's stdout: every `{"metric",...}` row, every `{"span",...}` /
/// `{"msg",...}` row, and a closing `{"metric":"ledger.msg_cost",...}` row
/// with the CostLedger's total so tools/trace_report can reconcile the
/// traced + untraced message cost against the ledger exactly. Requires the
/// cluster to have been built with `ClusterConfig::observe = true`; pair a
/// mid-run `ledger().reset()` with `tracer().clear()` so both cover the same
/// interval.
inline void write_obs_sidecar(Cluster& cluster, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write sidecar %s\n", path.c_str());
    return;
  }
  cluster.metrics().write_jsonl(os);
  cluster.tracer().write_jsonl(os);
  char total[64];
  std::snprintf(total, sizeof total, "%.6f", cluster.ledger().total_msg_cost());
  os << "{\"metric\":\"ledger.msg_cost\",\"machine\":-1,\"type\":\"gauge\","
     << "\"value\":" << total << "}\n";
}

/// A cluster preloaded with one (int, text) class and basic support joined.
struct TaskCluster {
  static Schema schema() {
    return Schema({
        ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
    });
  }

  static Tuple tuple(std::int64_t key, std::size_t text_bytes = 16) {
    return {Value{key}, Value{std::string(text_bytes, 'x')}};
  }

  static SearchCriterion by_key(std::int64_t key) {
    return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
  }
};

}  // namespace paso::bench
