// Vanilla PointNet classifier: shared per-point MLP + global max pool +
// fully connected head. Serves as the PanArch (Pantomime) stand-in for the
// gesture-recognition comparison rows of Table II: Pantomime's core is
// PointNet++ feature extraction whose aggregate behaviour on sparse clouds
// this captures, without the multilevel fusion GesturePrint adds.
#pragma once

#include <memory>

#include "gesidnet/model_api.hpp"
#include "gesidnet/set_abstraction.hpp"
#include "nn/loss.hpp"

namespace gp {

struct PointNetConfig {
  std::size_t num_classes = 2;
  std::size_t in_channels = 7;
  std::vector<std::size_t> point_mlp{32, 64, 128};
  std::size_t head_hidden = 64;
  double dropout = 0.3;
};

class PointNetBaseline : public PointCloudClassifier {
 public:
  PointNetBaseline(PointNetConfig config, Rng& rng);

  void infer_into(const BatchedCloud& batch, nn::Tensor& out,
                  nn::Workspace& ws) const override;
  double train_step(const BatchedCloud& batch, const std::vector<int>& labels) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return "PointNet"; }
  std::size_t num_classes() const override { return config_.num_classes; }

 private:
  PointNetConfig config_;
  std::unique_ptr<GroupAll> encoder_;  ///< shared MLP + max pool
  std::unique_ptr<nn::Sequential> head_;
};

}  // namespace gp
