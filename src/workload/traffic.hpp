// Open-loop internet-scale traffic generation.
//
// The benches before this layer were closed-loop: one synchronous client per
// machine, the next op issued only after the previous returned — a client
// population that politely slows down exactly when the system saturates,
// which is why closed loops cannot find the overload knee. This engine is
// *open-loop*: arrivals come from a seeded nonhomogeneous Poisson process
// (base rate x diurnal sinusoid x flash-crowd windows, sampled by
// Lewis-Shedler thinning) whose rate does not care how the system is doing.
// Each arrival is attributed to one of millions of simulated client
// sessions (ProcessId{machine, ordinal} — the ordinal space is the session
// space, no per-session state is materialized), draws its key from a
// Zipfian distribution (the YCSB-style skew), and issues a robust op on the
// owning machine's runtime. Completion latency lands in an obs::Histogram;
// the report carries p50/p99/p999 plus the full outcome breakdown, which is
// what bench_overload sweeps past the knee and gates.
//
// Deterministic by construction: one Rng seeds everything, arrivals are
// simulator events, and every decision happens at issue time — the same
// seed replays the same run bit for bit (chaos included).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "paso/cluster.hpp"
#include "sim/simulator.hpp"

namespace paso::workload {

/// Time-varying arrival-rate model: a base Poisson rate shaped by a diurnal
/// sinusoid and additive flash-crowd windows. Rates are ops per virtual
/// time unit, cluster-wide.
struct ArrivalModel {
  /// Baseline arrival rate (ops per virtual time unit).
  double base_rate = 0.01;
  /// Relative amplitude of the diurnal sinusoid in [0, 1): the rate swings
  /// between base*(1-a) and base*(1+a) over one period. 0 disables it.
  double diurnal_amplitude = 0.0;
  /// Virtual-time length of one diurnal cycle.
  sim::SimTime diurnal_period = 200'000;
  /// A flash crowd multiplies the instantaneous rate while active — the
  /// "everyone hits one segment at 9am" event overload survival is about.
  struct FlashCrowd {
    sim::SimTime start = 0;
    sim::SimTime duration = 0;
    double multiplier = 1.0;  ///< must be >= 1
  };
  std::vector<FlashCrowd> flash_crowds;

  /// Instantaneous rate lambda(t).
  double rate_at(sim::SimTime t) const;
  /// A constant envelope >= rate_at(t) for all t (the thinning majorant).
  double peak_rate() const;
};

struct TrafficConfig {
  std::uint64_t seed = 1;
  ArrivalModel arrivals;
  /// Virtual-time generation horizon; completions are drained afterwards.
  sim::SimTime duration = 100'000;
  /// Simulated client sessions, multiplexed over the machines: session i
  /// lives on machine i % machines as ProcessId{machine, i / machines}.
  /// Sessions are an identity space, not materialized state, so millions
  /// cost nothing.
  std::size_t sessions = 1'000'000;
  /// Key universe and Zipf exponent for the key-choice skew.
  std::size_t key_space = 1024;
  double zipf_s = 0.99;
  /// Fraction of arrivals that are inserts; the rest are reads.
  double insert_fraction = 0.5;
  /// Payload size handed to make_tuple.
  std::size_t payload_bytes = 64;
  /// Schema adapters: the engine is schema-agnostic, the caller provides
  /// the tuple/criterion constructors for its key space.
  std::function<Tuple(std::uint64_t key, std::size_t payload_bytes)>
      make_tuple;
  std::function<SearchCriterion(std::uint64_t key)> make_criterion;
  /// Latency histogram bucket bounds (virtual time units).
  std::vector<double> latency_bounds = {25,    50,    100,    200,    400,
                                        800,   1600,  3200,   6400,   12800,
                                        25600, 51200, 102400, 204800};
};

/// Everything one generation run produced. offered = accepted arrivals;
/// every op lands in exactly one completion counter unless its issuing
/// machine crashed with the op in flight (orphaned — the crash wiped the
/// client-side state, the callback will never fire).
struct TrafficReport {
  std::uint64_t offered = 0;        ///< ops issued
  std::uint64_t skipped = 0;        ///< arrivals with no live machine to issue from
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;         ///< definitive no-match answers
  std::uint64_t timed_out = 0;
  std::uint64_t degraded = 0;       ///< refused at the λ−k boundary
  std::uint64_t overloaded = 0;     ///< refused by admission control
  std::uint64_t orphaned = 0;       ///< issuer crashed mid-op
  sim::SimTime elapsed = 0;         ///< generation horizon actually used
  obs::Histogram latency{std::vector<double>{}};  ///< completed-op latency

  /// Completed useful work per virtual time unit — the bench's y-axis.
  double goodput() const {
    return elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0;
  }
  /// Fraction of offered ops refused (admission) or lost (crash orphans).
  double shed_rate() const {
    return offered > 0
               ? static_cast<double>(overloaded + orphaned) / offered
               : 0.0;
  }
  double p50() const { return latency.quantile(0.50); }
  double p99() const { return latency.quantile(0.99); }
  double p999() const { return latency.quantile(0.999); }
};

/// Drives one Cluster (sim transport only — open-loop arrival times are
/// virtual-time events) with the configured traffic and reports.
class TrafficEngine {
 public:
  TrafficEngine(Cluster& cluster, TrafficConfig config);

  /// Generate arrivals over [now, now + duration), then drain the simulator
  /// until every in-flight completion fired. Reentrant: each call is an
  /// independent run appending to nothing.
  TrafficReport run();

 private:
  void arm_next_arrival(sim::SimTime horizon);
  void issue();

  Cluster& cluster_;
  TrafficConfig config_;
  Rng rng_;
  TrafficReport report_;
  obs::Histogram latency_;
};

}  // namespace paso::workload
