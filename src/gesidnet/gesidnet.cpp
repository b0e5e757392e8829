#include "gesidnet/gesidnet.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp {

GesIDNet::GesIDNet(GesIDNetConfig config, Rng& rng) : config_(std::move(config)) {
  check_arg(config_.num_classes >= 2, "GesIDNet needs >= 2 classes");

  sa1_ = std::make_unique<SetAbstraction>(config_.sa1_centroids, config_.in_channels,
                                          config_.sa1_scales, rng, "sa1");
  sa2_ = std::make_unique<SetAbstraction>(config_.sa2_centroids, sa1_->out_channels(),
                                          config_.sa2_scales, rng, "sa2");
  level1_ = std::make_unique<GroupAll>(sa1_->out_channels(), config_.level1_mlp, rng, "level1");
  level2_ = std::make_unique<GroupAll>(sa2_->out_channels(), config_.level2_mlp, rng, "level2");

  const std::size_t c1 = level1_->out_channels();
  const std::size_t c2 = level2_->out_channels();

  // Resizing blocks and fusion gates only exist when the fusion module is
  // enabled (the Fig. 14 ablation removes them entirely).
  if (config_.enable_fusion) {
    resize_2to1_ = std::make_unique<nn::Sequential>();
    resize_2to1_->emplace<nn::Linear>(c2, c1, rng, "rb2to1");
    resize_2to1_->emplace<nn::ReLU>();
    resize_1to2_ = std::make_unique<nn::Sequential>();
    resize_1to2_->emplace<nn::Linear>(c1, c2, rng, "rb1to2");
    resize_1to2_->emplace<nn::ReLU>();
    fusion1_ = std::make_unique<AttentionFusion>(c1, rng, "fusion1");
    fusion2_ = std::make_unique<AttentionFusion>(c2, rng, "fusion2");
  }

  // Primary head (level 1): a couple of FC layers; auxiliary head (level 2):
  // one hidden FC, per "the number of FC layers depends on the level".
  head1_ = std::make_unique<nn::Sequential>();
  head1_->emplace<nn::Linear>(c1, config_.head1_hidden, rng, "head1.fc0");
  head1_->emplace<nn::ReLU>();
  nn::Dropout& dropout = head1_->emplace<nn::Dropout>(config_.dropout, rng);
  head1_->emplace<nn::Linear>(config_.head1_hidden, config_.num_classes, rng, "head1.fc1");

  head2_ = std::make_unique<nn::Sequential>();
  head2_->emplace<nn::Linear>(c2, config_.head2_hidden, rng, "head2.fc0");
  head2_->emplace<nn::ReLU>();
  head2_->emplace<nn::Linear>(config_.head2_hidden, config_.num_classes, rng, "head2.fc1");
  dropout.reseed(rng);  // masks continue the construction stream
}

GesIDNet::ForwardOut GesIDNet::forward_internal(const BatchedCloud& batch, bool training) {
  GP_SPAN("gesidnet.fwd");
  BatchedCloud sa1_out;
  BatchedCloud sa2_out;
  {
    GP_SPAN("gesidnet.sa.fwd");
    sa1_out = sa1_->forward(batch, training);
  }
  {
    GP_SPAN("gesidnet.sa.fwd");
    sa2_out = sa2_->forward(sa1_out, training);
  }

  nn::Tensor f1;
  nn::Tensor f2;
  {
    GP_SPAN("gesidnet.level.fwd");
    f1 = level1_->forward(sa1_out, training);
    f2 = level2_->forward(sa2_out, training);
  }

  nn::Tensor y1;
  nn::Tensor y2;
  if (config_.enable_fusion) {
    GP_SPAN("gesidnet.fusion.fwd");
    const nn::Tensor r21 = resize_2to1_->forward(f2, training);
    const nn::Tensor r12 = resize_1to2_->forward(f1, training);
    y1 = fusion1_->forward(r21, f1);
    y2 = fusion2_->forward(r12, f2);
  } else {
    y1 = std::move(f1);
    y2 = std::move(f2);
  }

  ForwardOut out;
  {
    GP_SPAN("gesidnet.head.fwd");
    out.logits1 = head1_->forward(y1, training);
    out.logits2 = head2_->forward(y2, training);
  }
  return out;
}

void GesIDNet::infer_trunk(const BatchedCloud& batch, Features& out, nn::Workspace& ws) const {
  const nn::Workspace::Frame frame(ws);
  BatchedCloud& sa1_out = ws.take<BatchedCloud>();
  BatchedCloud& sa2_out = ws.take<BatchedCloud>();
  {
    GP_SPAN("gesidnet.sa.fwd");
    sa1_->infer(batch, sa1_out, ws);
  }
  {
    GP_SPAN("gesidnet.sa.fwd");
    sa2_->infer(sa1_out, sa2_out, ws);
  }
  {
    GP_SPAN("gesidnet.level.fwd");
    level1_->infer(sa1_out, out.low, ws);
    level2_->infer(sa2_out, out.high, ws);
  }
  if (config_.enable_fusion) {
    GP_SPAN("gesidnet.fusion.fwd");
    nn::Tensor& r21 = ws.take<nn::Tensor>();
    nn::Tensor& r12 = ws.take<nn::Tensor>();
    resize_2to1_->infer(out.high, r21, ws);
    resize_1to2_->infer(out.low, r12, ws);
    fusion1_->infer(r21, out.low, out.fused_low);
    fusion2_->infer(r12, out.high, out.fused_high);
  } else {
    out.fused_low = out.low;
    out.fused_high = out.high;
  }
}

void GesIDNet::infer_into(const BatchedCloud& batch, nn::Tensor& logits,
                          nn::Workspace& ws) const {
  GP_SPAN("gesidnet.infer");
  GP_COUNTER_ADD("gp.gesidnet.infer_batches", 1);
  GP_COUNTER_ADD("gp.gesidnet.infer_samples", batch.batch);
  const nn::Workspace::Frame frame(ws);
  Features& features = ws.take<Features>();
  infer_trunk(batch, features, ws);
  GP_SPAN("gesidnet.head.fwd");
  head1_->infer(features.fused_low, logits, ws);
}

void GesIDNet::backward_internal(const nn::Tensor& dlogits1, const nn::Tensor& dlogits2) {
  GP_SPAN("gesidnet.bwd");
  nn::Tensor dy1;
  nn::Tensor dy2;
  {
    GP_SPAN("gesidnet.head.bwd");
    dy1 = head1_->backward(dlogits1);
    dy2 = head2_->backward(dlogits2);
  }

  nn::Tensor df1;
  nn::Tensor df2;
  if (config_.enable_fusion) {
    GP_SPAN("gesidnet.fusion.bwd");
    auto g1 = fusion1_->backward(dy1);   // {d r21, d f1 (native)}
    auto g2 = fusion2_->backward(dy2);   // {d r12, d f2 (native)}
    const nn::Tensor df2_via_rb = resize_2to1_->backward(g1.resized);
    const nn::Tensor df1_via_rb = resize_1to2_->backward(g2.resized);
    df1 = g1.native;
    df1 += df1_via_rb;
    df2 = g2.native;
    df2 += df2_via_rb;
  } else {
    df1 = dy1;
    df2 = dy2;
  }

  // Level heads back into the set-abstraction stack. SA1's output feeds
  // both level1_ and sa2_, so its gradient is the sum of both paths.
  GP_SPAN("gesidnet.sa.bwd");
  const nn::Tensor d_sa2_features = level2_->backward(df2);
  nn::Tensor d_sa1_features = sa2_->backward(d_sa2_features);
  d_sa1_features += level1_->backward(df1);
  (void)sa1_->backward(d_sa1_features);  // input grads unused (leaf data)
}

nn::Tensor GesIDNet::forward(const BatchedCloud& batch, bool training) {
  return forward_internal(batch, training).logits1;
}

double GesIDNet::train_step(const BatchedCloud& batch, const std::vector<int>& labels) {
  check(!fused_, "train_step on a fused (inference-only) GesIDNet");
  const ForwardOut out = forward_internal(batch, /*training=*/true);
  const nn::LossResult primary = nn::softmax_cross_entropy(out.logits1, labels, 1.0);
  const nn::LossResult auxiliary =
      nn::softmax_cross_entropy(out.logits2, labels, config_.aux_loss_weight);
  backward_internal(primary.grad, auxiliary.grad);
  return primary.loss + auxiliary.loss;
}

double GesIDNet::train_step_head_only(const BatchedCloud& batch, const std::vector<int>& labels) {
  check(!fused_, "train_step_head_only on a fused (inference-only) GesIDNet");
  GP_SPAN("gesidnet.fwd");
  // Trunk in inference mode: set-abstraction/level batch-norms neither
  // normalise by batch statistics nor update their running stats, so a
  // fine-tuned model's trunk forward is bit-identical to the base model's.
  const nn::Workspace::Frame frame(train_ws_);
  Features& trunk = train_ws_.take<Features>();
  infer_trunk(batch, trunk, train_ws_);
  const nn::Tensor& y1 = trunk.fused_low;
  const nn::Tensor& y2 = trunk.fused_high;

  // Only the heads train: dropout stays active where learning happens.
  const nn::Tensor logits1 = head1_->forward(y1, /*training=*/true);
  const nn::Tensor logits2 = head2_->forward(y2, /*training=*/true);
  const nn::LossResult primary = nn::softmax_cross_entropy(logits1, labels, 1.0);
  const nn::LossResult auxiliary =
      nn::softmax_cross_entropy(logits2, labels, config_.aux_loss_weight);
  {
    GP_SPAN("gesidnet.head.bwd");
    (void)head1_->backward(primary.grad);    // trunk frozen: input grads unused
    (void)head2_->backward(auxiliary.grad);
  }
  return primary.loss + auxiliary.loss;
}

void GesIDNet::release_caches() {
  sa1_->release_caches();
  sa2_->release_caches();
  level1_->release_caches();
  level2_->release_caches();
  if (config_.enable_fusion) {
    resize_2to1_->release_caches();
    resize_1to2_->release_caches();
    fusion1_->release_caches();
    fusion2_->release_caches();
  }
  head1_->release_caches();
  head2_->release_caches();
  train_ws_ = nn::Workspace();
}

std::vector<nn::Parameter*> GesIDNet::head_parameters() {
  std::vector<nn::Parameter*> out = head1_->parameters();
  const auto extra = head2_->parameters();
  out.insert(out.end(), extra.begin(), extra.end());
  return out;
}

std::unique_ptr<GesIDNet> GesIDNet::widen_head(std::size_t new_classes, std::uint64_t seed) {
  check(!fused_, "widen_head on a fused (inference-only) GesIDNet");
  check_arg(new_classes > config_.num_classes, "widen_head must grow the class count");

  GesIDNetConfig config = config_;
  config.num_classes = new_classes;
  // The seed determines the fresh init of the added class rows (and the
  // widened model's dropout stream).
  Rng rng(seed, 0xA02BDBF7BB3C0A7EULL);
  auto copy = std::make_unique<GesIDNet>(std::move(config), rng);

  const auto src_params = parameters();
  const auto dst_params = copy->parameters();
  check(src_params.size() == dst_params.size(), "widen_head parameter list mismatch");
  for (std::size_t i = 0; i < src_params.size(); ++i) {
    const nn::Parameter& src = *src_params[i];
    nn::Parameter& dst = *dst_params[i];
    if (src.value.rows() == dst.value.rows() && src.value.cols() == dst.value.cols()) {
      dst.value = src.value;
      continue;
    }
    // Only the final head Linears change shape: weight (classes x in) gains
    // rows, bias (1 x classes) gains columns. Copy the overlap — existing
    // users keep their exact decision boundaries — and leave the new class
    // rows at their fresh seeded init.
    check(dst.value.rows() >= src.value.rows() && dst.value.cols() >= src.value.cols(),
          "widen_head parameter shapes must grow");
    for (std::size_t r = 0; r < src.value.rows(); ++r) {
      for (std::size_t c = 0; c < src.value.cols(); ++c) {
        dst.value.at(r, c) = src.value.at(r, c);
      }
    }
  }

  const auto src_buffers = buffers();
  const auto dst_buffers = copy->buffers();
  check(src_buffers.size() == dst_buffers.size(), "widen_head buffer list mismatch");
  for (std::size_t i = 0; i < src_buffers.size(); ++i) {
    dst_buffers[i]->value = src_buffers[i]->value;  // trunk BN stats: identical shapes
  }
  return copy;
}

void GesIDNet::fuse_for_inference(nn::QuantMode mode) {
  if (fused_) return;
  sa1_->fuse_inference(mode);
  sa2_->fuse_inference(mode);
  level1_->fuse_inference(mode);
  level2_->fuse_inference(mode);
  if (config_.enable_fusion) {
    resize_2to1_->fuse_inference(mode);
    resize_1to2_->fuse_inference(mode);
    // AttentionFusion holds raw gate parameters (no Linear/BN stack): its
    // forward is already a single pass, nothing to fold.
  }
  head1_->fuse_inference(mode);
  head2_->fuse_inference(mode);
  fused_ = true;
  quant_ = mode;
}

std::unique_ptr<PointCloudClassifier> GesIDNet::clone() {
  // A fused model no longer exposes its training parameters, so a deep copy
  // cannot be reconstructed.
  if (fused_) return nullptr;
  // Fresh instance with the same architecture; the init draws are thrown
  // away immediately when the source weights are copied over. The clone's
  // dropout stream comes from this fixed seed, never the original's.
  Rng rng(0xC10E5EEDBEEFCAFEULL, 0xA02BDBF7BB3C0A7EULL);
  auto copy = std::make_unique<GesIDNet>(config_, rng);

  const auto copy_state = [](std::vector<nn::Parameter*> src, std::vector<nn::Parameter*> dst) {
    check(src.size() == dst.size(), "clone parameter list mismatch");
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i]->value = src[i]->value;
      dst[i]->grad = src[i]->grad;
    }
  };
  copy_state(parameters(), copy->parameters());
  copy_state(buffers(), copy->buffers());
  return copy;
}

std::vector<nn::Parameter*> GesIDNet::parameters() {
  std::vector<nn::Parameter*> out;
  const auto append = [&out](std::vector<nn::Parameter*> params) {
    out.insert(out.end(), params.begin(), params.end());
  };
  append(sa1_->parameters());
  append(sa2_->parameters());
  append(level1_->parameters());
  append(level2_->parameters());
  if (config_.enable_fusion) {
    append(resize_2to1_->parameters());
    append(resize_1to2_->parameters());
    append(fusion1_->parameters());
    append(fusion2_->parameters());
  }
  append(head1_->parameters());
  append(head2_->parameters());
  return out;
}

std::vector<nn::Parameter*> GesIDNet::buffers() {
  std::vector<nn::Parameter*> out;
  const auto append = [&out](std::vector<nn::Parameter*> buffers) {
    out.insert(out.end(), buffers.begin(), buffers.end());
  };
  append(sa1_->buffers());
  append(sa2_->buffers());
  append(level1_->buffers());
  append(level2_->buffers());
  // Resizing blocks, fusion gates and heads hold no batch-norm layers.
  return out;
}

GesIDNet::Features GesIDNet::extract_features(const BatchedCloud& batch) const {
  Features features;
  nn::Workspace ws;
  infer_trunk(batch, features, ws);
  return features;
}

}  // namespace gp
