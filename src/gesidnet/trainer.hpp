// Generic minibatch trainer for PointCloudClassifier models.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "gesidnet/model_api.hpp"
#include "nn/optimizer.hpp"

namespace gp {

/// A featurized dataset slice with integer labels.
struct LabeledSamples {
  std::vector<FeaturizedSample> samples;
  std::vector<int> labels;

  std::size_t size() const { return samples.size(); }
  void push(FeaturizedSample sample, int label) {
    samples.push_back(std::move(sample));
    labels.push_back(label);
  }
};

struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  double lr = 1e-3;
  double lr_decay = 0.95;      ///< multiplicative, per epoch
  double weight_decay = 1e-4;
  std::uint64_t seed = 1;
  bool verbose = false;
  /// Optimise only head_parameters() via train_step_head_only (frozen-trunk
  /// fine-tune for gp::enroll); default trains the full model.
  bool head_only = false;
};

struct TrainStats {
  std::vector<double> epoch_loss;
  double train_accuracy = 0.0;
};

/// Trains in place with Adam; returns per-epoch losses. The minibatch
/// forward/backward runs data-parallel on `ctx`: batched activations are
/// sample-major (row b*N+i belongs to sample b), so the row-panel matmul
/// kernels split every layer across the minibatch, and weight-gradient
/// accumulation keeps the serial summation order — losses are
/// bitwise-identical for any thread count. Ends with
/// model.release_caches(): a trained model keeps no backward caches.
TrainStats train_classifier(PointCloudClassifier& model, const LabeledSamples& data,
                            const TrainConfig& config,
                            exec::ExecContext& ctx = exec::ExecContext::global());

/// One exec lane's working set for predict_logits_into(): its slice of the
/// batch, that slice's logits and the model workspace. Kept across calls
/// (DecisionScratch holds one set per lane), a warm forward allocates nothing.
struct InferLane {
  BatchedCloud batch;
  nn::Tensor logits;
  nn::Workspace ws;
};

/// Batched inference over a sample list; rows align with `samples`. The
/// samples split into one contiguous slice per lane of `ctx` (at least two
/// samples per lane, so a single segment's TTA rows run inline on the
/// caller); each lane runs the model's reentrant infer_into() on its
/// slice, at most `batch_size` samples per call, with its own InferLane.
/// Every logit row depends only on its own sample, so the result is bitwise
/// the same for every lane count and batch size. Lanes run their kernels
/// serially: the parallelism is over samples.
void predict_logits_into(const PointCloudClassifier& model,
                         std::span<const FeaturizedSample> samples, nn::Tensor& out,
                         std::vector<InferLane>& lanes, exec::ExecContext& ctx,
                         std::size_t batch_size = 64);

/// Convenience variants with throwaway lanes.
void predict_logits_into(const PointCloudClassifier& model,
                         std::span<const FeaturizedSample> samples, nn::Tensor& out,
                         std::size_t batch_size = 64,
                         exec::ExecContext& ctx = exec::ExecContext::global());
nn::Tensor predict_logits(const PointCloudClassifier& model,
                          std::span<const FeaturizedSample> samples,
                          std::size_t batch_size = 64,
                          exec::ExecContext& ctx = exec::ExecContext::global());
nn::Tensor predict_logits(const PointCloudClassifier& model,
                          const std::vector<FeaturizedSample>& samples,
                          std::size_t batch_size = 64,
                          exec::ExecContext& ctx = exec::ExecContext::global());

}  // namespace gp
