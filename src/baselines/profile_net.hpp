// Concentrated position–Doppler profile network: the mGesNet / mSeeNet
// stand-in. mHomeGes and mTransSee convert point clouds into per-frame
// position-Doppler profiles and run convolutional nets over the profile
// sequence. We reproduce that pipeline: points are bucketed into T time
// slices; each slice yields [centroid xyz, mean Doppler, mean SNR, count];
// the T x 6 profile is flattened and classified by an MLP (the 1-D CNN's
// receptive-field structure matters little at T = 16).
//
// The profile extraction is a fixed (non-learned) transform, so gradients
// stop at the MLP input — exactly like the handcrafted profile stage of the
// original systems.
#pragma once

#include <memory>

#include "gesidnet/model_api.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"

namespace gp {

struct ProfileNetConfig {
  std::size_t num_classes = 2;
  std::size_t in_channels = 7;
  std::size_t time_bins = 16;
  std::size_t time_channel = 5;
  std::vector<std::size_t> hidden{96, 64};
  double dropout = 0.3;
};

class ProfileNetBaseline : public PointCloudClassifier {
 public:
  ProfileNetBaseline(ProfileNetConfig config, Rng& rng);

  void infer_into(const BatchedCloud& batch, nn::Tensor& out,
                  nn::Workspace& ws) const override;
  double train_step(const BatchedCloud& batch, const std::vector<int>& labels) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return "ProfileNet"; }
  std::size_t num_classes() const override { return config_.num_classes; }

  /// Exposed for tests: the (B x T*6) profile matrix.
  nn::Tensor extract_profiles(const BatchedCloud& batch) const;

 private:
  ProfileNetConfig config_;
  std::unique_ptr<nn::Sequential> net_;
};

}  // namespace gp
