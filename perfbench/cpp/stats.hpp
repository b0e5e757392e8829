// Sample statistics for the benchmark's timings.
//
// Every timing is reported as a median plus a tail percentile. The tail is
// the requested percentile (p99) when the sample supports it, otherwise the
// highest percentile that still has at least kTailBeyond samples above its
// rank — a p99 of 200 samples would be the second-largest value, i.e. noise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pb {

inline constexpr std::size_t kTailBeyond = 10;

/// 0-based nearest-rank index of percentile `p` (0 < p <= 100) in `n` sorted
/// samples.
inline std::size_t rank_index(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(idx, n == 0 ? 0 : n - 1);
}

/// Rank index of the highest percentile <= `target` that leaves at least
/// `beyond` samples above it; the median's index when `n` is too small to
/// support any tail (n <= 2 * beyond).
inline std::size_t tail_index(std::size_t n, double target, std::size_t beyond = kTailBeyond) {
  const std::size_t median_idx = rank_index(n, 50.0);
  if (n <= 2 * beyond) return median_idx;
  return std::max(median_idx, std::min(rank_index(n, target), n - 1 - beyond));
}

struct Quantile {
  double percentile = 0.0;  ///< the percentile actually reported
  double value = 0.0;
  std::size_t n = 0;
};

/// Value at rank `idx` of `samples` (sorts a copy), labelled `p` when that
/// is the requested percentile's rank, else with the rank's own percentile.
inline Quantile at_rank(std::vector<double> samples, std::size_t idx, double p) {
  Quantile q;
  q.n = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  q.value = samples[idx];
  q.percentile = idx == rank_index(q.n, p)
                     ? p
                     : 100.0 * static_cast<double>(idx + 1) / static_cast<double>(q.n);
  return q;
}

inline Quantile median(const std::vector<double>& samples) {
  return at_rank(samples, rank_index(samples.size(), 50.0), 50.0);
}

/// The tail percentile the sample supports, capped at `target`.
inline Quantile tail(const std::vector<double>& samples, double target = 99.0) {
  return at_rank(samples, tail_index(samples.size(), target), target);
}

}  // namespace pb
