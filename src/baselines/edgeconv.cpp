#include "baselines/edgeconv.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace gp {

EdgeConvBaseline::EdgeConvBaseline(EdgeConvConfig config, Rng& rng) : config_(std::move(config)) {
  check_arg(config_.k >= 1, "EdgeConv needs k >= 1");
  edge_mlp_ = nn::make_mlp(2 * config_.in_channels, config_.edge_mlp, rng, true, "edge");
  global_mlp_ = nn::make_mlp(config_.edge_mlp.back(), config_.global_mlp, rng, true, "edge.g");
  head_ = std::make_unique<nn::Sequential>();
  head_->emplace<nn::Linear>(config_.global_mlp.back(), config_.head_hidden, rng, "edge.fc0");
  head_->emplace<nn::ReLU>();
  nn::Dropout& dropout = head_->emplace<nn::Dropout>(config_.dropout, rng);
  head_->emplace<nn::Linear>(config_.head_hidden, config_.num_classes, rng, "edge.fc1");
  dropout.reseed(rng);  // masks continue the construction stream
}

template <typename RunMlp>
void EdgeConvBaseline::pass(const BatchedCloud& batch, nn::Tensor& logits, nn::Workspace& ws,
                            std::vector<std::size_t>* edge_argmax,
                            std::vector<std::size_t>* global_argmax, RunMlp&& run_mlp) const {
  check_arg(batch.channels() == config_.in_channels, "EdgeConv channel mismatch");
  check_arg(config_.time_channel < batch.channels(), "bad time channel index");
  const nn::Workspace::Frame frame(ws);
  const std::size_t num_batch = batch.batch;
  const std::size_t num_points = batch.num_points;
  const std::size_t k = std::min(config_.k, num_points);

  // Temporal kNN per sample (space-time metric).
  auto& neighbours = ws.take<std::vector<std::size_t>>();
  neighbours.resize(num_batch * num_points * k);
  auto& dist = ws.take<std::vector<std::pair<double, std::size_t>>>();
  for (std::size_t b = 0; b < num_batch; ++b) {
    const std::size_t base = b * num_points;
    for (std::size_t i = 0; i < num_points; ++i) {
      dist.clear();
      const float* pi = batch.positions.row(base + i);
      const double ti = batch.features.at(base + i, config_.time_channel);
      for (std::size_t j = 0; j < num_points; ++j) {
        const float* pj = batch.positions.row(base + j);
        const double dt = (batch.features.at(base + j, config_.time_channel) - ti) *
                          config_.time_scale;
        const double dx = pj[0] - pi[0];
        const double dy = pj[1] - pi[1];
        const double dz = pj[2] - pi[2];
        dist.emplace_back(dx * dx + dy * dy + dz * dz + dt * dt, base + j);
      }
      std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k), dist.end());
      for (std::size_t n = 0; n < k; ++n) {
        neighbours[(base + i) * k + n] = dist[n].second;
      }
    }
  }

  // Edge rows: [feat_i | feat_j - feat_i].
  const std::size_t c_in = config_.in_channels;
  nn::Tensor& edges = ws.take<nn::Tensor>();
  edges.resize(num_batch * num_points * k, 2 * c_in);
  for (std::size_t r = 0; r < num_batch * num_points; ++r) {
    const float* fi = batch.features.row(r);
    for (std::size_t n = 0; n < k; ++n) {
      const float* fj = batch.features.row(neighbours[r * k + n]);
      float* dst = edges.row(r * k + n);
      for (std::size_t c = 0; c < c_in; ++c) {
        dst[c] = fi[c];
        dst[c_in + c] = fj[c] - fi[c];
      }
    }
  }

  // Shared edge MLP + max over the k edges per point.
  nn::Tensor& edge_act = ws.take<nn::Tensor>();
  run_mlp(*edge_mlp_, edges, edge_act);
  const std::size_t ce = config_.edge_mlp.back();
  nn::Tensor& point_features = ws.take<nn::Tensor>();
  point_features.resize(num_batch * num_points, ce);
  if (edge_argmax != nullptr) edge_argmax->resize(num_batch * num_points * ce);
  nn::max_pool_rows(edge_act, num_batch * num_points, k, point_features, 0,
                    edge_argmax != nullptr ? edge_argmax->data() : nullptr);

  // Global MLP on per-point features + max pool over each sample.
  nn::Tensor& global_act = ws.take<nn::Tensor>();
  run_mlp(*global_mlp_, point_features, global_act);
  const std::size_t cg = config_.global_mlp.back();
  nn::Tensor& global = ws.take<nn::Tensor>();
  global.resize(num_batch, cg);
  if (global_argmax != nullptr) global_argmax->resize(num_batch * cg);
  nn::max_pool_rows(global_act, num_batch, num_points, global, 0,
                    global_argmax != nullptr ? global_argmax->data() : nullptr);

  run_mlp(*head_, global, logits);
}

void EdgeConvBaseline::backward_internal(const nn::Tensor& dlogits) {
  const nn::Tensor dglobal = head_->backward(dlogits);
  const std::size_t cg = config_.global_mlp.back();
  nn::Tensor dglobal_act(batch_ * num_points_, cg);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = dglobal.row(b);
    for (std::size_t c = 0; c < cg; ++c) {
      dglobal_act.at(global_argmax_[b * cg + c], c) += src[c];
    }
  }
  const nn::Tensor dpoint = global_mlp_->backward(dglobal_act);

  const std::size_t ce = config_.edge_mlp.back();
  const std::size_t k = std::min(config_.k, num_points_);
  nn::Tensor dedge_act(batch_ * num_points_ * k, ce);
  for (std::size_t r = 0; r < batch_ * num_points_; ++r) {
    const float* src = dpoint.row(r);
    for (std::size_t c = 0; c < ce; ++c) {
      dedge_act.at(edge_argmax_[r * ce + c], c) += src[c];
    }
  }
  (void)edge_mlp_->backward(dedge_act);  // input features are leaves
}

void EdgeConvBaseline::infer_into(const BatchedCloud& batch, nn::Tensor& out,
                                  nn::Workspace& ws) const {
  pass(batch, out, ws, nullptr, nullptr,
       [&](const nn::Sequential& mlp, const nn::Tensor& in, nn::Tensor& act) {
         mlp.infer(in, act, ws);
       });
}

double EdgeConvBaseline::train_step(const BatchedCloud& batch, const std::vector<int>& labels) {
  batch_ = batch.batch;
  num_points_ = batch.num_points;
  nn::Tensor logits;
  pass(batch, logits, train_ws_, &edge_argmax_, &global_argmax_,
       [](nn::Sequential& mlp, const nn::Tensor& in, nn::Tensor& act) {
         act = mlp.forward(in, /*training=*/true);
       });
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  backward_internal(loss.grad);
  return loss.loss;
}

std::vector<nn::Parameter*> EdgeConvBaseline::parameters() {
  auto out = edge_mlp_->parameters();
  for (nn::Parameter* p : global_mlp_->parameters()) out.push_back(p);
  for (nn::Parameter* p : head_->parameters()) out.push_back(p);
  return out;
}

}  // namespace gp
