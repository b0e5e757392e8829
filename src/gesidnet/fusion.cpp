#include "gesidnet/fusion.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gp {

AttentionFusion::AttentionFusion(std::size_t channels, Rng& rng, const std::string& name)
    : channels_(channels) {
  check_arg(channels > 0, "fusion channels must be positive");
  gate_weight_.name = name + ".gate.weight";
  gate_weight_.value = nn::Tensor(1, channels);
  gate_weight_.value.randn(rng, std::sqrt(1.0 / static_cast<double>(channels)));
  gate_weight_.grad = nn::Tensor(1, channels);
  gate_bias_.name = name + ".gate.bias";
  gate_bias_.value = nn::Tensor(1, 1);
  gate_bias_.grad = nn::Tensor(1, 1);
}

nn::Tensor AttentionFusion::forward(const nn::Tensor& resized, const nn::Tensor& native) {
  resized_ = resized;
  native_ = native;
  s_resized_.assign(resized.rows(), 0.0);
  nn::Tensor out;
  blend(resized, native, out, s_resized_.data());
  return out;
}

void AttentionFusion::infer(const nn::Tensor& resized, const nn::Tensor& native,
                            nn::Tensor& out) const {
  blend(resized, native, out, nullptr);
}

void AttentionFusion::blend(const nn::Tensor& resized, const nn::Tensor& native, nn::Tensor& out,
                            double* s_resized) const {
  check_arg(resized.rows() == native.rows() && resized.cols() == channels_ &&
                native.cols() == channels_,
            "fusion input shape mismatch");
  out.resize(resized.rows(), channels_);
  const float* w = gate_weight_.value.row(0);
  const double bias = gate_bias_.value.at(0, 0);
  for (std::size_t i = 0; i < resized.rows(); ++i) {
    double a1 = bias;
    double a2 = bias;
    const float* r = resized.row(i);
    const float* n = native.row(i);
    for (std::size_t c = 0; c < channels_; ++c) {
      a1 += w[c] * r[c];
      a2 += w[c] * n[c];
    }
    // Two-way softmax, computed stably.
    const double s1 = 1.0 / (1.0 + std::exp(a2 - a1));
    if (s_resized != nullptr) s_resized[i] = s1;
    const double s2 = 1.0 - s1;
    float* o = out.row(i);
    for (std::size_t c = 0; c < channels_; ++c) {
      o[c] = static_cast<float>(s1 * r[c] + s2 * n[c]);
    }
  }
}

AttentionFusion::Grads AttentionFusion::backward(const nn::Tensor& grad_output) {
  check_arg(grad_output.rows() == resized_.rows() && grad_output.cols() == channels_,
            "fusion backward shape mismatch");

  Grads grads;
  grads.resized = nn::Tensor(resized_.rows(), channels_);
  grads.native = nn::Tensor(resized_.rows(), channels_);
  const float* w = gate_weight_.value.row(0);

  for (std::size_t i = 0; i < grad_output.rows(); ++i) {
    const double s1 = s_resized_[i];
    const double s2 = 1.0 - s1;
    const float* g = grad_output.row(i);
    const float* r = resized_.row(i);
    const float* n = native_.row(i);

    // dL/da1 = s1*s2 * (F_resized - F_native) . g ; dL/da2 = -dL/da1.
    double dot = 0.0;
    for (std::size_t c = 0; c < channels_; ++c) dot += (r[c] - n[c]) * g[c];
    const double da1 = s1 * s2 * dot;

    float* gr = grads.resized.row(i);
    float* gn = grads.native.row(i);
    for (std::size_t c = 0; c < channels_; ++c) {
      // Direct paths plus the gate path (a1 depends on resized, a2 on native).
      gr[c] = static_cast<float>(s1 * g[c] + da1 * w[c]);
      gn[c] = static_cast<float>(s2 * g[c] - da1 * w[c]);
      gate_weight_.grad.at(0, c) += static_cast<float>(da1 * r[c] - da1 * n[c]);
    }
    // d(a1)/d(bias) = d(a2)/d(bias) = 1, and dL/da2 = -dL/da1, so the bias
    // gradient cancels exactly; kept explicit for clarity.
    gate_bias_.grad.at(0, 0) += static_cast<float>(da1 - da1);
  }
  return grads;
}

std::vector<nn::Parameter*> AttentionFusion::parameters() {
  return {&gate_weight_, &gate_bias_};
}

void AttentionFusion::release_caches() {
  resized_ = nn::Tensor();
  native_ = nn::Tensor();
}

double AttentionFusion::mean_resized_weight() const {
  if (s_resized_.empty()) return 0.5;
  double acc = 0.0;
  for (double s : s_resized_) acc += s;
  return acc / static_cast<double>(s_resized_.size());
}

}  // namespace gp
