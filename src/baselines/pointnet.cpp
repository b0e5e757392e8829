#include "baselines/pointnet.hpp"

namespace gp {

PointNetBaseline::PointNetBaseline(PointNetConfig config, Rng& rng) : config_(std::move(config)) {
  encoder_ = std::make_unique<GroupAll>(config_.in_channels, config_.point_mlp, rng, "pointnet");
  head_ = std::make_unique<nn::Sequential>();
  head_->emplace<nn::Linear>(encoder_->out_channels(), config_.head_hidden, rng, "pointnet.fc0");
  head_->emplace<nn::ReLU>();
  nn::Dropout& dropout = head_->emplace<nn::Dropout>(config_.dropout, rng);
  head_->emplace<nn::Linear>(config_.head_hidden, config_.num_classes, rng, "pointnet.fc1");
  dropout.reseed(rng);  // masks continue the construction stream
}

void PointNetBaseline::infer_into(const BatchedCloud& batch, nn::Tensor& out,
                                  nn::Workspace& ws) const {
  const nn::Workspace::Frame frame(ws);
  nn::Tensor& global = ws.take<nn::Tensor>();
  encoder_->infer(batch, global, ws);
  head_->infer(global, out, ws);
}

double PointNetBaseline::train_step(const BatchedCloud& batch, const std::vector<int>& labels) {
  const nn::Tensor global = encoder_->forward(batch, /*training=*/true);
  const nn::Tensor logits = head_->forward(global, /*training=*/true);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  const nn::Tensor dglobal = head_->backward(loss.grad);
  (void)encoder_->backward(dglobal);
  return loss.loss;
}

std::vector<nn::Parameter*> PointNetBaseline::parameters() {
  auto out = encoder_->parameters();
  const auto head_params = head_->parameters();
  out.insert(out.end(), head_params.begin(), head_params.end());
  return out;
}

}  // namespace gp
