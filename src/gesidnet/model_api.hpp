// Common interface for all point-cloud classifiers (GesIDNet and the
// baseline networks), so the trainer and evaluation harness are generic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gesidnet/batch.hpp"
#include "nn/layers.hpp"

namespace gp {

class PointCloudClassifier {
 public:
  virtual ~PointCloudClassifier() = default;

  /// Inference-mode logits, one row per sample, into `out`. Reentrant: it
  /// reads only const weights and takes every temporary from `ws`, so lanes
  /// with distinct workspaces may share one model. Each output row depends
  /// only on its own sample (bitwise, whatever the batch composition).
  virtual void infer_into(const BatchedCloud& batch, nn::Tensor& out,
                          nn::Workspace& ws) const = 0;

  /// infer_into() with a throwaway workspace.
  nn::Tensor infer(const BatchedCloud& batch) const {
    nn::Tensor out;
    nn::Workspace ws;
    infer_into(batch, out, ws);
    return out;
  }

  /// One training forward/backward pass; gradients accumulate into
  /// parameters() (the optimiser consumes them). Returns the batch loss.
  virtual double train_step(const BatchedCloud& batch, const std::vector<int>& labels) = 0;

  virtual std::vector<nn::Parameter*> parameters() = 0;
  /// Logit columns infer_into() produces.
  virtual std::size_t num_classes() const = 0;
  /// Non-learned persistent state (batch-norm running stats); default none.
  virtual std::vector<nn::Parameter*> buffers() { return {}; }
  virtual std::string name() const = 0;

  /// Parameter subset a head-only fine-tune optimises. Models without a
  /// head/trunk split train everything (identical to parameters()).
  virtual std::vector<nn::Parameter*> head_parameters() { return parameters(); }
  /// Training step with the feature trunk frozen (no batch-norm statistic
  /// drift); models without the split fall back to a full step.
  virtual double train_step_head_only(const BatchedCloud& batch, const std::vector<int>& labels) {
    return train_step(batch, labels);
  }

  /// Frees the training forward's backward caches and working sets; the
  /// trainer calls it once training ends, so a fitted model holds its
  /// parameters and buffers, not the last step's activations. The next
  /// training step rebuilds them. Models without caches do nothing.
  virtual void release_caches() {}

  /// Deep copy with identical weights and buffers — a trainable replica
  /// (the training forward caches activations, so one instance cannot train
  /// on two threads). Inference needs no copy: infer_into() is reentrant.
  /// Models that do not support replication return nullptr.
  virtual std::unique_ptr<PointCloudClassifier> clone() { return nullptr; }
};

}  // namespace gp
