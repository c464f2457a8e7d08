// perfbench — the repository benchmark. One run sets up one workload, runs a
// fixed warm-up window that also meters the model costs, then drives the
// workload closed-loop for --seconds and prints every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1). The last line of
// stdout is the JSON result; see README.md for the metric definitions.
//
//   perfbench --workload sim-adaptive --seed 7 --seconds 10 --trace 0
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "paso/wire.hpp"
#include "persist/wal.hpp"
#include "semantics/checker.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace paso;
using Clock = std::chrono::steady_clock;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- counters read around a phase ---------------------------------------------

struct Counters {
  double msg_cost = 0;
  double work = 0;
  std::uint64_t messages = 0;  // ledger-charged transmissions
  std::uint64_t bytes = 0;
  std::uint64_t xfer_bytes = 0;  // state-xfer + state-xfer-delta
  std::uint64_t events = 0;
  std::uint64_t gcasts = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t appends = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t replayed_records = 0;
};

Counters read_counters(Cluster& cluster) {
  Counters c;
  cluster.transport().run_exclusive([&] {
    const net::CostLedger& ledger = cluster.ledger();
    c.msg_cost = ledger.total_msg_cost();
    c.work = ledger.total_work();
    for (const auto& [tag, stats] : ledger.per_tag()) {
      c.messages += stats.messages;
      c.bytes += stats.bytes;
      if (tag == "state-xfer" || tag == "state-xfer-delta") {
        c.xfer_bytes += stats.bytes;
      }
    }
    for (std::uint32_t m = 0; m < cluster.machine_count(); ++m) {
      const persist::PersistStats& s = cluster.persistence(MachineId{m}).stats();
      c.appends += s.appends;
      c.append_bytes += s.append_bytes;
      c.checkpoints += s.checkpoints;
      c.replayed_records += s.replayed_records;
    }
  });
  c.events = cluster.simulator().events_processed();
  c.gcasts = cluster.groups().gcasts_completed();
  c.retransmits = cluster.groups().retransmits();
  return c;
}

/// Counts machines entering and leaving write groups, from view
/// installations; a member removed while down is an expulsion, not a leave.
class MembershipCounter {
 public:
  void attach(Cluster& cluster) {
    for (std::uint32_t cls = 0; cls < cluster.schema().class_count(); ++cls) {
      const GroupName group = cluster.schema().group_name(ClassId{cls});
      members_[group] = cluster.groups().view_of(group).members;
    }
    cluster.groups().add_view_listener(
        [this, &cluster](const GroupName& group, const vsync::View& view) {
          std::lock_guard<std::mutex> lock(mu_);
          std::vector<MachineId>& before = members_[group];
          for (const MachineId m : view.members) {
            if (!std::binary_search(before.begin(), before.end(), m)) ++joins;
          }
          for (const MachineId m : before) {
            if (view.contains(m)) continue;
            if (cluster.is_up(m)) ++leaves;
          }
          before = view.members;
        });
  }
  std::atomic<std::uint64_t> joins{0};
  std::atomic<std::uint64_t> leaves{0};

 private:
  std::mutex mu_;
  std::map<GroupName, std::vector<MachineId>> members_;
};

// --- the closed loop ------------------------------------------------------------

struct Span {
  OpType type;
  double us;
  std::uint64_t events;
  std::uint64_t gcasts;
};

/// One measured op: its latency and the window it completed in.
struct Sample {
  double us;
  std::size_t window;
  bool read;
};

struct ClientResult {
  ClientLog log;
  std::vector<Sample> samples;
  std::vector<Span> spans;
  std::uint64_t per_type[6] = {};
  std::string error;
};

struct PhaseSpec {
  bool timed = false;
  std::size_t limit = 0;  // op index bound per client
  Clock::time_point start;
  Clock::time_point deadline;
  double window_s = 1;
  std::size_t windows = 0;
  bool trace = false;  // odd windows record spans
};

void run_client(Workload& w, std::size_t c, std::size_t& cursor,
                const PhaseSpec& spec, ClientResult& out) {
  Clock::time_point last = spec.start;
  while (cursor < spec.limit && !(spec.timed && last >= spec.deadline)) {
    w.before_op(c, cursor);
    Call call = w.prepare(c, cursor);
    const OpType type = call.op->type;
    const Clock::time_point t0 = Clock::now();
    const auto window = static_cast<std::size_t>(
        std::chrono::duration<double>(t0 - spec.start).count() / spec.window_s);
    const bool traced = spec.trace && window % 2 == 1;
    std::uint64_t events = 0;
    std::uint64_t gcasts = 0;
    if (traced) {
      events = w.cluster().simulator().events_processed();
      gcasts = w.cluster().groups().gcasts_completed();
    }
    w.issue(call);
    const Clock::time_point t1 = Clock::now();
    last = t1;
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (traced) {
      out.spans.push_back(
          {type, us, w.cluster().simulator().events_processed() - events,
           w.cluster().groups().gcasts_completed() - gcasts});
    }
    w.check(call, out.log);
    ++cursor;
    if (!spec.timed) continue;
    ++out.per_type[static_cast<int>(type)];
    out.samples.push_back(
        {us,
         static_cast<std::size_t>(
             std::chrono::duration<double>(t1 - spec.start).count() /
             spec.window_s),
         is_read(type)});
  }
}

std::vector<ClientResult> run_phase(Workload& w,
                                    std::vector<std::size_t>& cursors,
                                    const PhaseSpec& spec) {
  std::vector<ClientResult> results(w.clients());
  const auto body = [&](std::size_t c) {
    try {
      run_client(w, c, cursors[c], spec, results[c]);
    } catch (const std::exception& e) {
      results[c].error = e.what();
    }
  };
  if (w.clients() == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < w.clients(); ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  }
  for (const ClientResult& r : results) {
    if (!r.error.empty()) throw std::runtime_error("client: " + r.error);
  }
  return results;
}

// --- reporting --------------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-30s %16.4f %s\n", name.c_str(), value, unit.c_str());
  }
  /// A latency percentile: computed exactly from each window's samples,
  /// reported as the median over windows, so a stall confined to a few
  /// windows (a preempted vCPU) does not move it. A window counts only when
  /// at least 10 of its samples lie beyond the percentile; the run fails
  /// unless most windows count.
  void percentile(const std::string& name,
                  std::vector<std::vector<double>> windows, double q) {
    std::vector<double> values;
    std::size_t n = 0;
    for (std::vector<double>& samples : windows) {
      n += samples.size();
      if (const std::optional<double> v = quantile(samples, q)) {
        values.push_back(*v);
      }
    }
    if (2 * values.size() <= windows.size()) {
      throw std::runtime_error(name + ": too few samples per window (" +
                               std::to_string(n) + " in " +
                               std::to_string(windows.size()) + " windows)");
    }
    const double value = median(values);
    std::printf("  %s by window:", name.c_str());
    for (const double v : values) std::printf(" %.1f", v);
    std::printf("\n");
    metrics_.push_back({name, value, "us"});
    std::printf("  %-30s %16.4f us   (n=%zu, median of %zu windows)\n",
                name.c_str(), value, n, values.size());
  }
  double value(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    throw std::logic_error("no metric " + name);
  }
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    std::printf("%s}}\n", json.c_str());
  }

 private:
  Metrics metrics_;
};

rusage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double peak_rss_mb() {
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;  // KiB
}

/// Encoded messages to time the wire codec on: the WAL records the run
/// left on every machine's disk when persistence is on, else the protocol
/// messages of the workload's own ops. With persistence on, finding no WAL
/// record is an error: the file name below mirrors the layout in
/// persist/manager.hpp, and a silent fallback would swap the input.
std::vector<std::vector<std::uint8_t>> codec_sample(Workload& w) {
  std::vector<std::vector<std::uint8_t>> encoded;
  Cluster& cluster = w.cluster();
  if (!cluster.persistence_enabled()) {
    for (const ServerMessage& m : w.op_messages(20'000)) {
      encoded.push_back(wire::encode_message(m));
    }
    return encoded;
  }
  for (std::uint32_t m = 0; m < cluster.machine_count(); ++m) {
    const persist::SimDisk& disk = cluster.persistence(MachineId{m}).disk();
    for (std::uint32_t cls = 0; cls < cluster.schema().class_count(); ++cls) {
      std::string file = "c";
      file += std::to_string(cls);
      file += ".log";
      const auto* log = disk.peek(file);
      if (log == nullptr) continue;
      for (persist::WalRecord& r : persist::scan_log(*log).records) {
        encoded.push_back(std::move(r.payload));
      }
    }
  }
  if (encoded.empty()) {
    throw std::runtime_error(
        "wire: persistence is on but no WAL record was found under "
        "c<class>.log; has the layout in persist/manager.hpp changed?");
  }
  return encoded;
}

int run(const Args& args) {
  WorkloadOptions options{args.seed, args.seconds, args.trace};
  // Declared before the workload, so it outlives the cluster whose view
  // listener refers to it.
  MembershipCounter membership;
  std::unique_ptr<Workload> w = make_workload(args.workload, options);
  if (!w) throw std::invalid_argument("unknown workload " + args.workload);
  std::printf("workload %s  seed %llu  seconds %g  trace %d  hardware threads %u\n",
              w->name().c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency());

  // Set-up: construction, joins, preload, settle — several times, median.
  std::vector<double> setups;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    w->teardown();  // the previous cluster's shutdown is not set-up time
    const Clock::time_point start = Clock::now();
    w->setup();
    setups.push_back(seconds_since(start));
  }
  std::printf("setups (s):");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  Cluster& cluster = w->cluster();
  if (args.trace) membership.attach(cluster);

  // Warm-up and model-cost window: a fixed number of ops per client, so
  // msg_cost_per_op and work_per_op cover the same ops on every run.
  std::vector<std::size_t> cursors(w->clients(), 0);
  const Counters model_before = read_counters(cluster);
  PhaseSpec warm;
  warm.limit = w->model_ops_per_client();
  std::vector<ClientResult> warm_results = run_phase(*w, cursors, warm);
  cluster.settle();
  const Counters model_after = read_counters(cluster);
  const double model_ops =
      static_cast<double>(w->model_ops_per_client() * w->clients());
  // Peak memory through a fixed amount of work (set-ups and the warm-up
  // window), so a faster program is not charged for running more ops. The
  // benchmark's own op list, sized by --seconds, is not the program's.
  const double harness_mb = static_cast<double>(w->harness_bytes()) / (1 << 20);
  const double rss_mb = peak_rss_mb() - harness_mb;
  std::printf("peak rss %.1f MB, of which %.1f MB the benchmark's op list\n",
              rss_mb + harness_mb, harness_mb);

  // The measured phase: closed loop until the deadline, in 1 s windows.
  PhaseSpec spec;
  spec.timed = true;
  spec.trace = args.trace;
  spec.windows = std::max<std::size_t>(
      args.trace ? 4 : 2, static_cast<std::size_t>(args.seconds + 0.5));
  if (args.trace && spec.windows % 2 == 1) ++spec.windows;
  spec.window_s = args.seconds / static_cast<double>(spec.windows);
  spec.limit = SIZE_MAX;
  for (std::size_t c = 0; c < w->clients(); ++c) {
    spec.limit = std::min(spec.limit, w->ops_per_client(c));
  }
  const Counters before = read_counters(cluster);
  const rusage usage_before = self_usage();
  spec.start = Clock::now();
  spec.deadline = spec.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(args.seconds));
  std::vector<ClientResult> results = run_phase(*w, cursors, spec);
  const double elapsed = seconds_since(spec.start);
  const rusage usage_after = self_usage();
  cluster.settle();
  const Counters after = read_counters(cluster);

  // Output checks.
  std::vector<ClientLog> logs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;
  for (auto* set : {&warm_results, &results}) {
    for (ClientResult& r : *set) {
      attempted += r.log.attempted;
      failed += r.log.failed;
      wrong += r.log.wrong;
      errors.insert(errors.end(), r.log.errors.begin(), r.log.errors.end());
      logs.push_back(std::move(r.log));
    }
  }
  w->final_checks(logs, errors);
  // sim-adaptive's traced run records history (crashes and all) and must
  // satisfy A1-A3.
  if (args.trace && w->name() == "sim-adaptive") {
    if (cluster.history().size() == 0) errors.push_back("no history recorded");
    const semantics::CheckResult check =
        semantics::check_history(cluster.history(), cluster.run_context());
    std::printf("history: %zu ops checked against A1-A3: %s\n",
                cluster.history().size(), check.ok() ? "clean" : "VIOLATED");
    for (const auto& v : check.violations) {
      if (errors.size() < 10) errors.push_back("history: " + v);
    }
    if (!check.ok() && errors.empty()) errors.push_back("history violated");
  }

  // Merge the clients' samples, by window. Ops that completed after the
  // last full window count in `ops` but in no window.
  const auto full_windows = std::min(
      spec.windows, static_cast<std::size_t>(elapsed / spec.window_s + 1e-9));
  std::vector<std::vector<double>> all_w(full_windows);
  std::vector<std::vector<double>> read_w(full_windows);
  std::vector<std::vector<double>> update_w(full_windows);
  std::vector<double> all_us;
  std::vector<Span> spans;
  std::uint64_t per_type[6] = {};
  for (const ClientResult& r : results) {
    for (const Sample& sample : r.samples) {
      all_us.push_back(sample.us);
      if (sample.window >= full_windows) continue;
      all_w[sample.window].push_back(sample.us);
      (sample.read ? read_w : update_w)[sample.window].push_back(sample.us);
    }
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
    for (int t = 0; t < 6; ++t) per_type[t] += r.per_type[t];
  }
  const std::uint64_t ops = all_us.size();
  std::vector<double> window_rates;
  for (const std::vector<double>& window : all_w) {
    window_rates.push_back(static_cast<double>(window.size()) / spec.window_s);
  }
  std::printf("measured: %llu ops in %.3f s over %zu full windows; "
              "failed_frac %.6g (%llu of %llu attempted)\n",
              static_cast<unsigned long long>(ops), elapsed, full_windows,
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const auto cpu_s = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  std::printf("process in the phase: %.2f s user, %.2f s system, %ld minor "
              "faults, %ld involuntary switches\n",
              cpu_s(usage_after.ru_utime) - cpu_s(usage_before.ru_utime),
              cpu_s(usage_after.ru_stime) - cpu_s(usage_before.ru_stime),
              usage_after.ru_minflt - usage_before.ru_minflt,
              usage_after.ru_nivcsw - usage_before.ru_nivcsw);
  std::printf("window rates (1/s):");
  for (const double r : window_rates) std::printf(" %.0f", r);
  std::printf("\n");
  if (full_windows < 2 || ops == 0) {
    throw std::runtime_error("op list exhausted before the measured phase "
                             "covered two windows");
  }

  // The whole phase's tail around p99: a p99 sitting at the edge of a
  // cluster of slow ops (sim-adaptive's joins) would jump between runs.
  std::printf("  tail (us):");
  for (const double q : {0.90, 0.95, 0.98, 0.99, 0.995, 0.999}) {
    if (const std::optional<double> v = quantile(all_us, q)) {
      std::printf("  p%g %.1f", 100 * q, *v);
    }
  }
  std::printf("\n");

  Report report;
  if (!args.trace) {
    report.add("ops_per_s", median(window_rates), "1/s");
    report.percentile("op_p50_us", all_w, 0.50);
    report.percentile("op_p99_us", all_w, 0.99);
    report.percentile("read_p50_us", read_w, 0.50);
    report.percentile("update_p50_us", update_w, 0.50);
    report.add("msg_cost_per_op",
               (model_after.msg_cost - model_before.msg_cost) / model_ops,
               "cost/op");
    report.add("work_per_op", (model_after.work - model_before.work) / model_ops,
               "cost/op");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", rss_mb, "MB");
  } else {
    const double n = static_cast<double>(ops);
    const auto per_op = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / n;
    };
    const std::uint64_t joins = membership.joins.load();
    const std::uint64_t leaves = membership.leaves.load();
    // Joins and leaves are counted from the start of the warm-up window, so
    // their rates (and the transfer bytes per join) cover both phases.
    report.add("sim.events_per_op", per_op(before.events, after.events), "count");
    report.add("sim.ns_per_event",
               after.events > before.events
                   ? elapsed * 1e9 / static_cast<double>(after.events - before.events)
                   : 0,
               "ns");
    report.add("sim.loop_ns_per_event", sim_loop_ns_per_event(), "ns");
    report.add("vsync.gcasts_per_op", per_op(before.gcasts, after.gcasts), "count");
    report.add("vsync.retransmits",
               static_cast<double>(after.retransmits - before.retransmits), "count");
    report.add("vsync.xfer_bytes_per_join",
               joins > 0 ? static_cast<double>(after.xfer_bytes -
                                               model_before.xfer_bytes) /
                               static_cast<double>(joins)
                         : 0,
               "B");
    report.add("adaptive.joins_per_kop",
               1000.0 * static_cast<double>(joins) / (n + model_ops), "count");
    report.add("adaptive.leaves_per_kop",
               1000.0 * static_cast<double>(leaves) / (n + model_ops), "count");
    report.add("persist.append_bytes_per_op",
               per_op(before.append_bytes, after.append_bytes), "B");
    report.add("persist.checkpoints_per_kop",
               1000.0 * per_op(before.checkpoints, after.checkpoints), "count");
    report.add("persist.replayed_records",
               static_cast<double>(after.replayed_records - before.replayed_records),
               "count");
    report.add("net.msgs_per_op", per_op(before.messages, after.messages), "count");

    // Traced vs untraced windows of the same run.
    std::vector<double> traced;
    std::vector<double> untraced;
    for (std::size_t win = 0; win < window_rates.size(); ++win) {
      (win % 2 == 1 ? traced : untraced).push_back(window_rates[win]);
    }
    const double untraced_rate = median(untraced);
    report.add("obs.overhead_frac", 1.0 - median(traced) / untraced_rate, "frac");

    // Per-op-kind view of the spans.
    static const char* kTypeNames[] = {"exact", "range", "prefix", "topk",
                                       "insert", "readdel"};
    for (int t = 0; t < 6; ++t) {
      std::vector<double> us;
      double events = 0;
      double gcasts = 0;
      for (const Span& s : spans) {
        if (static_cast<int>(s.type) != t) continue;
        us.push_back(s.us);
        events += static_cast<double>(s.events);
        gcasts += static_cast<double>(s.gcasts);
      }
      if (us.empty()) continue;
      const double k = static_cast<double>(us.size());
      std::printf("  span %-8s n=%-8zu p10/p50/p90 %8.2f %8.2f %8.2f us  "
                  "events/op %8.2f  gcasts/op %6.3f\n",
                  kTypeNames[t], us.size(), quantile(us, 0.1, 0).value(),
                  quantile(us, 0.5, 0).value(), quantile(us, 0.9, 0).value(),
                  events / k, gcasts / k);
    }

    // Layer timings, on inputs shaped like this workload's.
    const std::vector<std::vector<std::uint8_t>> sample = codec_sample(*w);
    Metrics layers;
    measure_wire(sample, cluster.schema(), layers);
    const double mean_msg_bytes =
        after.messages > before.messages
            ? static_cast<double>(after.bytes - before.bytes) /
                  static_cast<double>(after.messages - before.messages)
            : 64;
    w->teardown();
    measure_storage(args.seed, layers);
    measure_frames(static_cast<std::size_t>(mean_msg_bytes), layers);
    layers.push_back({"exec.timer_lag_us", exec_timer_lag_us(), "us"});
    layers.push_back({"net.send_deliver_us", threaded_send_deliver_us(), "us"});
    layers.push_back({"net.ring_pushpop_ns", ring_pushpop_ns(), "ns"});
    layers.push_back({"net.overflowed", threaded_burst_overflowed(), "count"});
    layers.push_back({"socket.send_deliver_us", socket_send_deliver_us(), "us"});
    layers.push_back(
        {"socket.frames_per_write", socket_frames_per_write(), "count"});
    for (const Metric& m : layers) report.add(m.name, m.value, m.unit);

    // How much of the untraced ns/op the layer timings account for:
    // sum over layers of (time per call x calls per op).
    const double e2e_ns = 1e9 * static_cast<double>(w->clients()) / untraced_rate;
    double explained = report.value("sim.events_per_op") *
                       report.value("sim.loop_ns_per_event");
    const auto share = [&](OpType t) {
      return static_cast<double>(per_type[static_cast<int>(t)]) / n;
    };
    switch (w->transport()) {
      case TransportKind::kSim:
        explained += (static_cast<double>(after.appends - before.appends) / n) *
                     report.value("wire.encode_ns");
        if (w->name() == "sim-query") {
          // Reads run on one local replica; updates apply on both members.
          explained +=
              share(OpType::kExact) * report.value("storage.find_ns.exact") +
              share(OpType::kRange) * report.value("storage.find_ns.range") +
              share(OpType::kPrefix) * report.value("storage.find_ns.prefix") +
              share(OpType::kTopK) * report.value("storage.find_ns.topk") +
              2 * share(OpType::kInsert) * report.value("storage.store_ns") +
              2 * share(OpType::kReadDel) * report.value("storage.remove_ns");
        }
        break;
      case TransportKind::kThreaded:
        explained += report.value("net.msgs_per_op") *
                     report.value("net.send_deliver_us") * 1e3;
        break;
      case TransportKind::kSocket:
        explained += report.value("net.msgs_per_op") *
                     report.value("socket.send_deliver_us") * 1e3;
        break;
    }
    report.add("layers.explained_frac", explained / e2e_ns, "frac");
  }

  const bool correct = errors.empty() && wrong == 0 && failed == 0;
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED %s\n", e.c_str());
  report.print_json(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
