// Exact order statistics over every recorded sample. Latency percentiles are
// taken from the raw samples, never from bucketed histograms, so a median
// moves only when the samples themselves move.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile: the smallest sample with at least q of all samples
/// at or below it. Reported only when at least `min_beyond` samples lie
/// strictly above its rank, so a tail percentile is never read off a handful
/// of outliers. Reorders `samples`.
inline std::optional<double> quantile(std::vector<double>& samples, double q,
                                      std::size_t min_beyond = 10) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a small set of repeated measurements (e.g. per-window rates or
/// repeated set-ups). Reorders `values`.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
