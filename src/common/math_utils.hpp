// Small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace gp {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kSpeedOfLight = 299792458.0;  // m/s

/// n evenly spaced values covering [lo, hi] inclusive. n >= 2.
inline std::vector<double> linspace(double lo, double hi, std::size_t n) {
  check_arg(n >= 2, "linspace requires n >= 2");
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;
  return out;
}

inline double mean(std::span<const double> v) {
  check_arg(!v.empty(), "mean of empty span");
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

inline double variance(std::span<const double> v) {
  check_arg(!v.empty(), "variance of empty span");
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

inline double stddev(std::span<const double> v) { return std::sqrt(variance(v)); }

inline double median(std::vector<double> v) {
  check_arg(!v.empty(), "median of empty vector");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid) - 1, v.end());
  return 0.5 * (v[mid - 1] + hi);
}

/// Index of the largest element. Requires non-empty input.
template <typename T>
std::size_t argmax(std::span<const T> v) {
  check_arg(!v.empty(), "argmax of empty span");
  return static_cast<std::size_t>(std::distance(v.begin(), std::max_element(v.begin(), v.end())));
}

template <typename T>
std::size_t argmax(const std::vector<T>& v) {
  return argmax(std::span<const T>(v));
}

/// Quantile with linear interpolation, q in [0, 1]. Sorts `v` in place —
/// the allocation-free form hot loops call on reused scratch buffers.
inline double quantile_inplace(std::vector<double>& v, double q) {
  check_arg(!v.empty(), "quantile of empty vector");
  check_arg(q >= 0.0 && q <= 1.0, "quantile requires q in [0,1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Copying convenience overload.
inline double quantile(std::vector<double> v, double q) { return quantile_inplace(v, q); }

/// Wraps an angle to (-pi, pi].
inline double wrap_angle(double a) {
  while (a > kPi) a -= 2.0 * kPi;
  while (a <= -kPi) a += 2.0 * kPi;
  return a;
}

}  // namespace gp
