#include "dsp/window.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace gp::dsp {

std::vector<double> make_window(WindowKind kind, std::size_t n) {
  check_arg(n >= 1, "window length must be >= 1");
  std::vector<double> w(n, 1.0);
  const double denom = static_cast<double>(n);  // periodic form
  switch (kind) {
    case WindowKind::kRect:
      break;
    case WindowKind::kHann:
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = 0.5 - 0.5 * std::cos(2.0 * kPi * static_cast<double>(i) / denom);
      }
      break;
    case WindowKind::kHamming:
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = 0.54 - 0.46 * std::cos(2.0 * kPi * static_cast<double>(i) / denom);
      }
      break;
    case WindowKind::kBlackman:
      for (std::size_t i = 0; i < n; ++i) {
        const double t = 2.0 * kPi * static_cast<double>(i) / denom;
        w[i] = 0.42 - 0.5 * std::cos(t) + 0.08 * std::cos(2.0 * t);
      }
      break;
  }
  return w;
}

double coherent_gain(const std::vector<double>& window) {
  check_arg(!window.empty(), "coherent gain of empty window");
  double acc = 0.0;
  for (double v : window) acc += v;
  return acc / static_cast<double>(window.size());
}

}  // namespace gp::dsp
