// GesIDNet (Fig. 5): multi-scale set abstraction, two level features,
// attention-based multilevel fusion, and dual classification heads with an
// auxiliary loss. The identical architecture is trained twice — once with
// gesture labels (recognition) and once with user labels (identification).
#pragma once

#include <memory>

#include "gesidnet/fusion.hpp"
#include "gesidnet/model_api.hpp"
#include "gesidnet/set_abstraction.hpp"
#include "nn/loss.hpp"

namespace gp {

struct GesIDNetConfig {
  std::size_t num_classes = 2;
  std::size_t in_channels = 7;

  std::size_t sa1_centroids = 24;
  std::vector<ScaleSpec> sa1_scales{{0.18, 8, {16, 24}}, {0.40, 12, {24, 32}}};
  std::size_t sa2_centroids = 8;
  std::vector<ScaleSpec> sa2_scales{{0.35, 4, {32, 48}}, {0.70, 8, {48, 64}}};

  std::vector<std::size_t> level1_mlp{64, 96};    ///< group-all at level 1
  std::vector<std::size_t> level2_mlp{96, 128};   ///< group-all at level 2
  std::size_t head1_hidden = 48;
  std::size_t head2_hidden = 64;

  double aux_loss_weight = 0.5;  ///< weight of the level-2 auxiliary loss
  double dropout = 0.3;
  bool enable_fusion = true;     ///< ablation switch (Fig. 14)
};

class GesIDNet : public PointCloudClassifier {
 public:
  GesIDNet(GesIDNetConfig config, Rng& rng);

  /// Trunk → fusion → primary head on const weights (model_api.hpp). The
  /// auxiliary head does not run: only training reads its logits.
  void infer_into(const BatchedCloud& batch, nn::Tensor& logits,
                  nn::Workspace& ws) const override;
  /// The layered training forward's primary logits. With training == false
  /// it runs in inference mode (still writing the backward caches):
  /// infer_into() matches it bitwise.
  nn::Tensor forward(const BatchedCloud& batch, bool training);
  double train_step(const BatchedCloud& batch, const std::vector<int>& labels) override;
  std::vector<nn::Parameter*> parameters() override;
  std::vector<nn::Parameter*> buffers() override;
  std::string name() const override { return "GesIDNet"; }
  std::size_t num_classes() const override { return config_.num_classes; }
  void release_caches() override;
  /// Deep copy (weights + batch-norm statistics) for training replicas.
  std::unique_ptr<PointCloudClassifier> clone() override;

  /// Just the dual-head parameters — the subset a head-only fine-tune
  /// optimises (the PointNet++ trunk stays frozen).
  std::vector<nn::Parameter*> head_parameters() override;
  /// Head-only training step: the trunk runs in inference mode (batch-norm
  /// running stats frozen — that is the point of a head-only fine-tune),
  /// only head1_/head2_ see training mode and accumulate gradients.
  double train_step_head_only(const BatchedCloud& batch, const std::vector<int>& labels) override;
  /// Architecture-preserving head widening: returns a fresh model with
  /// `new_classes` outputs whose trunk and existing class rows are copied
  /// from this one; the added class rows keep their seed-derived init.
  std::unique_ptr<GesIDNet> widen_head(std::size_t new_classes, std::uint64_t seed);

  /// Intermediate representations for the t-SNE study (Fig. 6).
  struct Features {
    nn::Tensor low;         ///< F^l1 (B x C1)
    nn::Tensor high;        ///< F^l2 (B x C2)
    nn::Tensor fused_low;   ///< Y^l1
    nn::Tensor fused_high;  ///< Y^l2
  };
  Features extract_features(const BatchedCloud& batch) const;

  const GesIDNetConfig& config() const { return config_; }

  /// Irreversibly rewrites every MLP stack into its fused inference form
  /// (nn/fused.hpp): batch-norms folded into the linears, ReLU epilogues,
  /// dropout removed, weights transposed for the blocked GEMM.
  /// Afterwards the model is inference-only — train_step() throws, clone()
  /// returns nullptr, and parameters()/buffers() must not be serialized.
  /// gp::serve calls this on its private ModelSnapshot copies (DESIGN.md
  /// §8); never fuse a model you still need to train, save, or clone.
  /// With QuantMode::kInt8 every fused layer quantizes its BN fold and runs
  /// the symmetric int8 kernel (nn/quant.hpp).
  void fuse_for_inference(nn::QuantMode mode = nn::QuantMode::kOff);
  bool fused() const { return fused_; }
  /// Quant mode the model was fused with (kOff before fusing).
  nn::QuantMode quant() const { return quant_; }

 private:
  /// The inference trunk: set abstraction, level features and fusion into
  /// `out` (fused_low/fused_high are the two head inputs). Shared by
  /// infer_into(), extract_features() and the head-only fine-tune.
  void infer_trunk(const BatchedCloud& batch, Features& out, nn::Workspace& ws) const;

  struct ForwardOut {
    nn::Tensor logits1;
    nn::Tensor logits2;
  };
  ForwardOut forward_internal(const BatchedCloud& batch, bool training);
  void backward_internal(const nn::Tensor& dlogits1, const nn::Tensor& dlogits2);

  GesIDNetConfig config_;
  bool fused_ = false;  ///< fuse_for_inference() ran; forward-only now
  nn::QuantMode quant_ = nn::QuantMode::kOff;  ///< mode the fuse ran with
  std::unique_ptr<SetAbstraction> sa1_;
  std::unique_ptr<SetAbstraction> sa2_;
  std::unique_ptr<GroupAll> level1_;
  std::unique_ptr<GroupAll> level2_;
  std::unique_ptr<nn::Sequential> resize_2to1_;  ///< RB: C2 -> C1
  std::unique_ptr<nn::Sequential> resize_1to2_;  ///< RB: C1 -> C2
  std::unique_ptr<AttentionFusion> fusion1_;
  std::unique_ptr<AttentionFusion> fusion2_;
  std::unique_ptr<nn::Sequential> head1_;
  std::unique_ptr<nn::Sequential> head2_;
  nn::Workspace train_ws_;  ///< train_step_head_only's frozen-trunk temporaries
};

}  // namespace gp
