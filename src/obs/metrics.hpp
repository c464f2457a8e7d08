// Metrics registry: live counters, gauges and fixed-bucket histograms for
// the whole PASO stack.
//
// The paper's argument is quantitative (Figure 1 cost tables, the Theorem
// 2/3 competitive ratios, the Section 3.3 gcast formulas), but CostLedger
// only reports aggregate totals after a run ends. The registry is the live
// counterpart: every layer publishes per-server and per-class measurements
// while the run is still going, cheap enough for hot paths — metric handles
// are plain structs mutated by direct increment, there are no locks (the
// simulation is single-threaded) and no allocation after handle resolution.
//
// Scoping and crash semantics (Section 3): a metric is either
// *cluster-scoped* (machine == kClusterScope) or *machine-scoped*. A server
// crash erases that machine's metrics exactly like it erases its memory —
// the values are zeroed, never the registration, so cached handles stay
// valid across crash/recover cycles — while the cluster-scoped side keeps a
// `cluster.restarts` counter of how often that happened.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace paso::obs {

/// Monotone event count. Plain increment: safe for the hottest paths.
struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t n = 1) { value += n; }
};

/// Instantaneous (or additive, for cost decompositions) real value.
struct Gauge {
  double value = 0;
  void set(double v) { value = v; }
  void add(double v) { value += v; }
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds; bucket i
/// counts observations <= bounds[i], the final overflow bucket counts the
/// rest. Count and sum ride along so means are recoverable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Estimated q-quantile (q in [0, 1]), linearly interpolated inside the
  /// bucket that crosses rank q*count. Observations past the last bound
  /// yield that bound (the overflow bucket has no upper edge to
  /// interpolate toward). NaN when empty — an empty histogram has no
  /// quantiles, and a fabricated 0 reads like a measured latency. The
  /// wall-clock and overload benches report p50/p99/p999 through this.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// Machine value standing for "the cluster, not any one server".
inline constexpr int kClusterScope = -1;

class MetricsRegistry {
 public:
  /// Resolve (and create on first use) a metric. References are stable for
  /// the registry's lifetime — resolve once, keep the handle on the hot
  /// path. The cluster-scope overloads register under kClusterScope.
  Counter& counter(const std::string& name);
  Counter& counter(const std::string& name, MachineId machine);
  Gauge& gauge(const std::string& name);
  Gauge& gauge(const std::string& name, MachineId machine);
  /// `bounds` applies on first creation only; later lookups reuse them.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  Histogram& histogram(const std::string& name, MachineId machine,
                       std::vector<double> bounds);

  /// Crash semantics (Section 3): zero every metric scoped to `machine` —
  /// its local measurements die with its memory — and bump the
  /// cluster-scoped `cluster.restarts` counter.
  void on_machine_crash(MachineId machine);
  std::uint64_t restarts() const;

  /// Number of registered metrics (all kinds).
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// One `{"metric",...}` JSON row per metric per line (the structured
  /// sibling of the benches' `{"bench",...}` rows; see docs/observability.md).
  void write_jsonl(std::ostream& os) const;

 private:
  struct Key {
    std::string name;
    int machine = kClusterScope;
    auto operator<=>(const Key&) const = default;
  };

  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace paso::obs
