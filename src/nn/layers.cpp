#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

namespace gp::nn {

// ---- Linear --------------------------------------------------------------

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng, std::string name) {
  check_arg(in_features > 0 && out_features > 0, "Linear feature counts must be positive");
  weight_.name = name + ".weight";
  weight_.value = Tensor(out_features, in_features);
  // Kaiming-normal initialisation for ReLU networks.
  weight_.value.randn(rng, std::sqrt(2.0 / static_cast<double>(in_features)));
  weight_.grad = Tensor(out_features, in_features);
  bias_.name = name + ".bias";
  bias_.value = Tensor(1, out_features);
  bias_.grad = Tensor(1, out_features);
}

Tensor Linear::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor weight_t;
  Tensor out;
  affine(input, weight_t, out);
  return out;
}

void Linear::infer(const Tensor& input, Tensor& out, Workspace& ws) const {
  const Workspace::Frame frame(ws);
  affine(input, ws.take<Tensor>(), out);
}

void Linear::affine(const Tensor& input, Tensor& weight_t, Tensor& out) const {
  check_arg(input.cols() == weight_.value.cols(), "Linear input width mismatch");
  const Tensor& w = weight_.value;
  weight_t.resize(w.cols(), w.rows());
  for (std::size_t k = 0; k < w.cols(); ++k) {
    float* dst = weight_t.row(k);  // contiguous writes: ~2x the strided form
    for (std::size_t o = 0; o < w.rows(); ++o) dst[o] = w.at(o, k);
  }
  matmul(input, weight_t, out);  // (N x in) * (in x out)
  const float* b = bias_.value.row(0);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    float* row = out.row(i);
    for (std::size_t j = 0; j < out.cols(); ++j) row[j] += b[j];
  }
}

Tensor Linear::backward(const Tensor& grad_output) {
  check_arg(grad_output.rows() == cached_input_.rows(), "Linear backward batch mismatch");
  check_arg(grad_output.cols() == weight_.value.rows(), "Linear backward width mismatch");

  // dW += g^T x ; db += sum_rows(g) ; dx = g W.
  Tensor dw;
  matmul_at(grad_output, cached_input_, dw);
  weight_.grad += dw;
  for (std::size_t i = 0; i < grad_output.rows(); ++i) {
    const float* row = grad_output.row(i);
    float* b = bias_.grad.row(0);
    for (std::size_t j = 0; j < grad_output.cols(); ++j) b[j] += row[j];
  }
  Tensor dx;
  matmul(grad_output, weight_.value, dx);
  return dx;
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

// ---- ReLU ----------------------------------------------------------------

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  Tensor out;
  rectify(input, out);
  mask_.resize(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    mask_.vec()[i] = input.vec()[i] > 0.0f ? 1.0f : 0.0f;
  }
  return out;
}

void ReLU::infer(const Tensor& input, Tensor& out, Workspace& /*ws*/) const {
  rectify(input, out);
}

void ReLU::rectify(const Tensor& input, Tensor& out) {
  out.resize(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float v = input.vec()[i];
    out.vec()[i] = v > 0.0f ? v : 0.0f;
  }
}

Tensor ReLU::backward(const Tensor& grad_output) {
  check_arg(grad_output.numel() == mask_.numel(), "ReLU backward shape mismatch");
  Tensor dx = grad_output;
  for (std::size_t i = 0; i < dx.numel(); ++i) dx.vec()[i] *= mask_.vec()[i];
  return dx;
}

// ---- Dropout ---------------------------------------------------------------

Dropout::Dropout(double p, const Rng& rng) : p_(p), rng_(rng) {
  check_arg(p >= 0.0 && p < 1.0, "dropout p must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || p_ == 0.0) {
    mask_ = Tensor(input.rows(), input.cols(), 1.0f);
    return input;
  }
  mask_ = Tensor(input.rows(), input.cols());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng_.bernoulli(p_)) {
      mask_.vec()[i] = 0.0f;
      out.vec()[i] = 0.0f;
    } else {
      mask_.vec()[i] = keep_scale;
      out.vec()[i] *= keep_scale;
    }
  }
  return out;
}

void Dropout::infer(const Tensor& input, Tensor& out, Workspace& /*ws*/) const {
  out.resize(input.rows(), input.cols());
  std::copy(input.vec().begin(), input.vec().end(), out.vec().begin());
}

Tensor Dropout::backward(const Tensor& grad_output) {
  check_arg(grad_output.numel() == mask_.numel(), "dropout backward shape mismatch");
  Tensor dx = grad_output;
  for (std::size_t i = 0; i < dx.numel(); ++i) dx.vec()[i] *= mask_.vec()[i];
  return dx;
}

// ---- BatchNorm1d -----------------------------------------------------------

BatchNorm1d::BatchNorm1d(std::size_t num_features, Rng& /*rng*/, double momentum, double eps,
                         std::string name)
    : features_(num_features), momentum_(momentum), eps_(eps) {
  gamma_.name = name + ".gamma";
  gamma_.value = Tensor(1, num_features, 1.0f);
  gamma_.grad = Tensor(1, num_features);
  beta_.name = name + ".beta";
  beta_.value = Tensor(1, num_features);
  beta_.grad = Tensor(1, num_features);
  running_mean_.name = name + ".running_mean";
  running_mean_.value = Tensor(1, num_features);
  running_var_.name = name + ".running_var";
  running_var_.value = Tensor(1, num_features, 1.0f);
}

Tensor BatchNorm1d::forward(const Tensor& input, bool training) {
  check_arg(input.cols() == features_, "BatchNorm input width mismatch");
  const std::size_t n = input.rows();
  Tensor out(n, features_);
  x_hat_ = Tensor(n, features_);
  batch_var_ = Tensor(1, features_);
  std::vector<double> constants(2 * features_, 0.0);  // [mean | inv_std]
  double* mean = constants.data();
  double* inv_std = mean + features_;

  trained_with_batch_ = training && n > 1;
  if (trained_with_batch_) {
    // Batch moments, row-major: each channel still sums its rows in
    // ascending order. The variance accumulates in inv_std's slots.
    double* var = inv_std;
    for (std::size_t i = 0; i < n; ++i) {
      const float* x = input.row(i);
      for (std::size_t c = 0; c < features_; ++c) mean[c] += x[c];
    }
    for (std::size_t c = 0; c < features_; ++c) mean[c] /= static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float* x = input.row(i);
      for (std::size_t c = 0; c < features_; ++c) {
        const double d = x[c] - mean[c];
        var[c] += d * d;
      }
    }
    for (std::size_t c = 0; c < features_; ++c) {
      var[c] /= static_cast<double>(n);
      running_mean_.value.at(0, c) = static_cast<float>(
          (1.0 - momentum_) * running_mean_.value.at(0, c) + momentum_ * mean[c]);
      running_var_.value.at(0, c) = static_cast<float>(
          (1.0 - momentum_) * running_var_.value.at(0, c) + momentum_ * var[c]);
      batch_var_.at(0, c) = static_cast<float>(var[c]);
      inv_std[c] = 1.0 / std::sqrt(var[c] + eps_);
    }
  } else {
    running_constants(mean, inv_std);
    batch_var_ = running_var_.value;
  }
  normalize(input, mean, inv_std, out, &x_hat_);
  return out;
}

void BatchNorm1d::infer(const Tensor& input, Tensor& out, Workspace& ws) const {
  check_arg(input.cols() == features_, "BatchNorm input width mismatch");
  const Workspace::Frame frame(ws);
  std::vector<double>& constants = ws.take<std::vector<double>>();
  constants.resize(2 * features_);
  running_constants(constants.data(), constants.data() + features_);
  out.resize(input.rows(), features_);
  normalize(input, constants.data(), constants.data() + features_, out, nullptr);
}

void BatchNorm1d::running_constants(double* mean, double* inv_std) const {
  for (std::size_t c = 0; c < features_; ++c) {
    mean[c] = running_mean_.value.at(0, c);
    inv_std[c] = 1.0 / std::sqrt(static_cast<double>(running_var_.value.at(0, c)) + eps_);
  }
}

void BatchNorm1d::normalize(const Tensor& input, const double* mean, const double* inv_std,
                            Tensor& out, Tensor* x_hat) const {
  const float* gamma = gamma_.value.row(0);
  const float* beta = beta_.value.row(0);
  for (std::size_t i = 0; i < input.rows(); ++i) {
    const float* x = input.row(i);
    float* y = out.row(i);
    float* xh_row = x_hat != nullptr ? x_hat->row(i) : nullptr;
    for (std::size_t c = 0; c < features_; ++c) {
      const double xh = (x[c] - mean[c]) * inv_std[c];
      if (xh_row != nullptr) xh_row[c] = static_cast<float>(xh);
      y[c] = static_cast<float>(gamma[c] * xh + beta[c]);
    }
  }
}

Tensor BatchNorm1d::backward(const Tensor& grad_output) {
  check_arg(grad_output.rows() == x_hat_.rows() && grad_output.cols() == features_,
            "BatchNorm backward shape mismatch");
  const std::size_t n = grad_output.rows();
  Tensor dx(n, features_);

  for (std::size_t c = 0; c < features_; ++c) {
    const double inv_std = 1.0 / std::sqrt(static_cast<double>(batch_var_.at(0, c)) + eps_);
    const double gamma = gamma_.value.at(0, c);

    double sum_g = 0.0;
    double sum_gx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double g = grad_output.at(i, c);
      sum_g += g;
      sum_gx += g * x_hat_.at(i, c);
      gamma_.grad.at(0, c) += static_cast<float>(g * x_hat_.at(i, c));
      beta_.grad.at(0, c) += static_cast<float>(g);
    }

    if (!trained_with_batch_) {
      // Inference statistics were used: the normalisation is a per-element
      // affine map, so the gradient is a plain scale.
      for (std::size_t i = 0; i < n; ++i) {
        dx.at(i, c) = static_cast<float>(grad_output.at(i, c) * gamma * inv_std);
      }
      continue;
    }

    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double g = grad_output.at(i, c);
      const double xh = x_hat_.at(i, c);
      dx.at(i, c) =
          static_cast<float>(gamma * inv_std * (g - inv_n * sum_g - xh * inv_n * sum_gx));
    }
  }
  return dx;
}

std::vector<Parameter*> BatchNorm1d::parameters() { return {&gamma_, &beta_}; }

std::vector<Parameter*> BatchNorm1d::buffers() { return {&running_mean_, &running_var_}; }

void BatchNorm1d::release_caches() {
  x_hat_ = Tensor();
  batch_var_ = Tensor();
}

// ---- Sequential ------------------------------------------------------------

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, training);
  return x;
}

void Sequential::infer(const Tensor& input, Tensor& out, Workspace& ws) const {
  check(!layers_.empty(), "Sequential::infer on an empty stack");
  const Workspace::Frame frame(ws);
  Tensor* ping = &ws.take<Tensor>();
  Tensor* pong = &ws.take<Tensor>();
  const Tensor* x = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Tensor& y = i + 1 == layers_.size() ? out : *ping;
    layers_[i]->infer(*x, y, ws);
    x = &y;
    std::swap(ping, pong);
  }
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Parameter*> Sequential::buffers() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->buffers()) out.push_back(p);
  }
  return out;
}

void Sequential::release_caches() {
  for (auto& layer : layers_) layer->release_caches();
}

std::unique_ptr<Sequential> make_mlp(std::size_t in_features,
                                     const std::vector<std::size_t>& hidden, Rng& rng,
                                     bool batch_norm, const std::string& name) {
  check_arg(!hidden.empty(), "make_mlp needs at least one layer");
  auto mlp = std::make_unique<Sequential>();
  std::size_t in = in_features;
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    const std::string lname = name + ".l" + std::to_string(i);
    mlp->emplace<Linear>(in, hidden[i], rng, lname);
    if (batch_norm) mlp->emplace<BatchNorm1d>(hidden[i], rng, 0.1, 1e-5, lname);
    mlp->emplace<ReLU>();
    in = hidden[i];
  }
  return mlp;
}

}  // namespace gp::nn
