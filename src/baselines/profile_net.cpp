#include "baselines/profile_net.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gp {

ProfileNetBaseline::ProfileNetBaseline(ProfileNetConfig config, Rng& rng)
    : config_(std::move(config)) {
  check_arg(config_.time_bins >= 2, "ProfileNet needs >= 2 time bins");
  const std::size_t in_dim = config_.time_bins * 6;
  net_ = std::make_unique<nn::Sequential>();
  std::size_t prev = in_dim;
  for (std::size_t i = 0; i < config_.hidden.size(); ++i) {
    net_->emplace<nn::Linear>(prev, config_.hidden[i], rng, "profile.fc" + std::to_string(i));
    net_->emplace<nn::BatchNorm1d>(config_.hidden[i], rng, 0.1, 1e-5,
                                   "profile.bn" + std::to_string(i));
    net_->emplace<nn::ReLU>();
    prev = config_.hidden[i];
  }
  nn::Dropout& dropout = net_->emplace<nn::Dropout>(config_.dropout, rng);
  net_->emplace<nn::Linear>(prev, config_.num_classes, rng, "profile.out");
  dropout.reseed(rng);  // masks continue the construction stream
}

nn::Tensor ProfileNetBaseline::extract_profiles(const BatchedCloud& batch) const {
  check_arg(config_.time_channel < batch.channels(), "bad time channel");
  const std::size_t t_bins = config_.time_bins;
  nn::Tensor profiles(batch.batch, t_bins * 6);

  for (std::size_t b = 0; b < batch.batch; ++b) {
    std::vector<double> sum_x(t_bins, 0.0);
    std::vector<double> sum_y(t_bins, 0.0);
    std::vector<double> sum_z(t_bins, 0.0);
    std::vector<double> sum_v(t_bins, 0.0);
    std::vector<double> sum_s(t_bins, 0.0);
    std::vector<double> count(t_bins, 0.0);

    const std::size_t base = b * batch.num_points;
    for (std::size_t i = 0; i < batch.num_points; ++i) {
      const double t = std::clamp(
          static_cast<double>(batch.features.at(base + i, config_.time_channel)), 0.0, 1.0);
      const auto bin = std::min(static_cast<std::size_t>(t * static_cast<double>(t_bins)),
                                t_bins - 1);
      sum_x[bin] += batch.positions.at(base + i, 0);
      sum_y[bin] += batch.positions.at(base + i, 1);
      sum_z[bin] += batch.positions.at(base + i, 2);
      sum_v[bin] += batch.features.at(base + i, 3);
      sum_s[bin] += batch.features.at(base + i, 4);
      count[bin] += 1.0;
    }
    for (std::size_t t = 0; t < t_bins; ++t) {
      const double n = std::max(count[t], 1.0);
      float* row = profiles.row(b);
      row[t * 6 + 0] = static_cast<float>(sum_x[t] / n);
      row[t * 6 + 1] = static_cast<float>(sum_y[t] / n);
      row[t * 6 + 2] = static_cast<float>(sum_z[t] / n);
      row[t * 6 + 3] = static_cast<float>(sum_v[t] / n);
      row[t * 6 + 4] = static_cast<float>(sum_s[t] / n);
      row[t * 6 + 5] = static_cast<float>(count[t] / static_cast<double>(batch.num_points));
    }
  }
  return profiles;
}

void ProfileNetBaseline::infer_into(const BatchedCloud& batch, nn::Tensor& out,
                                    nn::Workspace& ws) const {
  net_->infer(extract_profiles(batch), out, ws);
}

double ProfileNetBaseline::train_step(const BatchedCloud& batch, const std::vector<int>& labels) {
  const nn::Tensor logits = net_->forward(extract_profiles(batch), /*training=*/true);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  (void)net_->backward(loss.grad);
  return loss.loss;
}

std::vector<nn::Parameter*> ProfileNetBaseline::parameters() { return net_->parameters(); }

}  // namespace gp
