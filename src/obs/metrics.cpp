#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/require.hpp"

namespace paso::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    PASO_REQUIRE(bounds_[i - 1] < bounds_[i],
                 "histogram bounds must be ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += v;
}

void Histogram::reset() {
  buckets_.assign(bounds_.size() + 1, 0);
  count_ = 0;
  sum_ = 0;
}

double Histogram::quantile(double q) const {
  PASO_REQUIRE(q >= 0 && q <= 1, "quantile must be in [0, 1]");
  // An empty histogram has no quantiles: NaN, not a fabricated 0 a caller
  // could mistake for a measured latency.
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const double rank = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t before = seen;
    seen += buckets_[i];
    if (static_cast<double>(seen) < rank) continue;
    if (i >= bounds_.size()) {
      // Overflow bucket: no upper edge — report the last finite bound (or
      // 0 for a boundless histogram, which can't happen in practice).
      return bounds_.empty() ? 0 : bounds_.back();
    }
    const double lo = i == 0 ? 0 : bounds_[i - 1];
    const double hi = bounds_[i];
    const double into =
        (rank - static_cast<double>(before)) / static_cast<double>(buckets_[i]);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, into));
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[Key{name, kClusterScope}];
}

Counter& MetricsRegistry::counter(const std::string& name, MachineId machine) {
  return counters_[Key{name, static_cast<int>(machine.value)}];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[Key{name, kClusterScope}];
}

Gauge& MetricsRegistry::gauge(const std::string& name, MachineId machine) {
  return gauges_[Key{name, static_cast<int>(machine.value)}];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(Key{name, kClusterScope});
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(Key{name, kClusterScope}, Histogram(std::move(bounds)))
             .first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      MachineId machine,
                                      std::vector<double> bounds) {
  const Key key{name, static_cast<int>(machine.value)};
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_.emplace(key, Histogram(std::move(bounds))).first;
  }
  return it->second;
}

void MetricsRegistry::on_machine_crash(MachineId machine) {
  const int scope = static_cast<int>(machine.value);
  for (auto& [key, c] : counters_) {
    if (key.machine == scope) c.value = 0;
  }
  for (auto& [key, g] : gauges_) {
    if (key.machine == scope) g.value = 0;
  }
  for (auto& [key, h] : histograms_) {
    if (key.machine == scope) h.reset();
  }
  counter("cluster.restarts").inc();
}

std::uint64_t MetricsRegistry::restarts() const {
  auto it = counters_.find(Key{"cluster.restarts", kClusterScope});
  return it == counters_.end() ? 0 : it->second.value;
}

namespace {

void row_head(std::ostream& os, const std::string& name, int machine,
              const char* type) {
  os << "{\"metric\":\"" << name << "\",\"machine\":" << machine
     << ",\"type\":\"" << type << "\"";
}

}  // namespace

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const auto& [key, c] : counters_) {
    row_head(os, key.name, key.machine, "counter");
    os << ",\"value\":" << c.value << "}\n";
  }
  for (const auto& [key, g] : gauges_) {
    row_head(os, key.name, key.machine, "gauge");
    os << ",\"value\":" << g.value << "}\n";
  }
  for (const auto& [key, h] : histograms_) {
    row_head(os, key.name, key.machine, "histogram");
    os << ",\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      os << (i ? "," : "") << h.bounds()[i];
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      os << (i ? "," : "") << h.buckets()[i];
    }
    os << "]}\n";
  }
}

}  // namespace paso::obs
