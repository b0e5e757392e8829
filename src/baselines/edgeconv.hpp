// Temporal-kNN EdgeConv network: the Tesla-Rapture stand-in.
//
// Tesla builds a graph over points with a temporal K-NN (neighbours chosen
// in space-time) and applies graph convolution. We reproduce that shape:
// each point's neighbours are its k nearest in [x, y, z, beta * t] space;
// edge features [feat_i, feat_j - feat_i] pass through a shared MLP and are
// max-aggregated per point, then a global max pool and an FC head classify.
#pragma once

#include <memory>

#include "gesidnet/model_api.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"

namespace gp {

struct EdgeConvConfig {
  std::size_t num_classes = 2;
  std::size_t in_channels = 7;
  std::size_t k = 8;                 ///< temporal-kNN neighbourhood size
  double time_scale = 0.5;           ///< beta: weight of the t channel in kNN
  std::size_t time_channel = 5;      ///< feature index of the temporal channel
  std::vector<std::size_t> edge_mlp{32, 48};
  std::vector<std::size_t> global_mlp{96};
  std::size_t head_hidden = 48;
  double dropout = 0.3;
};

class EdgeConvBaseline : public PointCloudClassifier {
 public:
  EdgeConvBaseline(EdgeConvConfig config, Rng& rng);

  void infer_into(const BatchedCloud& batch, nn::Tensor& out,
                  nn::Workspace& ws) const override;
  double train_step(const BatchedCloud& batch, const std::vector<int>& labels) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return "EdgeConv"; }
  std::size_t num_classes() const override { return config_.num_classes; }

 private:
  /// kNN → edge MLP → edge max pool → global MLP → sample max pool → head,
  /// with `run_mlp(seq, in, out)` running each stack: the one pass behind
  /// train_step() and infer_into(). The argmax tables are optional (training).
  template <typename RunMlp>
  void pass(const BatchedCloud& batch, nn::Tensor& logits, nn::Workspace& ws,
            std::vector<std::size_t>* edge_argmax, std::vector<std::size_t>* global_argmax,
            RunMlp&& run_mlp) const;
  void backward_internal(const nn::Tensor& dlogits);

  EdgeConvConfig config_;
  std::unique_ptr<nn::Sequential> edge_mlp_;
  std::unique_ptr<nn::Sequential> global_mlp_;
  std::unique_ptr<nn::Sequential> head_;

  // Forward caches.
  std::vector<std::size_t> edge_argmax_;     ///< per (point,channel) edge row
  std::vector<std::size_t> global_argmax_;   ///< per (sample,channel) point row
  std::size_t batch_ = 0;
  std::size_t num_points_ = 0;
  nn::Workspace train_ws_;  ///< train_step()'s temporaries
};

}  // namespace gp
