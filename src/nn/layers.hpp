// Neural-network layers with hand-written exact backward passes.
//
// Two entry points share one set of kernels:
//   * forward(x, training) is the training path: it caches whatever
//     backward() needs, so the usual call pattern is forward -> loss ->
//     backward in lockstep. Parameter gradients accumulate into
//     Parameter::grad until the optimiser consumes and clears them. Every
//     backward pass here is verified against numerical differentiation in
//     tests/test_nn_gradcheck.cpp.
//   * infer(x, out, ws) const is the inference path: it reads only const
//     weights (batch-norm on its running statistics, dropout as identity),
//     writes no member state and takes its temporaries from a caller-owned
//     nn::Workspace. Concurrent calls with distinct workspaces are safe, a
//     warm call allocates nothing, and its output is bitwise that of
//     forward(x, /*training=*/false).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace gp::nn {

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
};

/// Base class: 2-D in, 2-D out.
class Layer {
 public:
  virtual ~Layer() = default;
  /// `training` toggles dropout/batch-norm statistics behaviour.
  virtual Tensor forward(const Tensor& input, bool training) = 0;
  /// Inference-mode forward into `out` (resized; must not alias `input`).
  virtual void infer(const Tensor& input, Tensor& out, Workspace& ws) const = 0;
  /// Consumes dL/d(output); returns dL/d(input); accumulates param grads.
  virtual Tensor backward(const Tensor& grad_output) = 0;
  virtual std::vector<Parameter*> parameters() { return {}; }
  /// Non-learned persistent state (e.g. batch-norm running statistics);
  /// serialized alongside parameters but never touched by optimisers.
  virtual std::vector<Parameter*> buffers() { return {}; }
};

/// y = x W^T + b, with W stored (out x in) and Kaiming-uniform init. Both
/// forward() and infer() run the blocked `matmul` on a transposed copy of W,
/// so the layer inherits its bit-pinned contract (nn/gemm_ref.hpp).
class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng, std::string name = "linear");

  Tensor forward(const Tensor& input, bool training) override;
  void infer(const Tensor& input, Tensor& out, Workspace& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  /// out = input W^T + b, with W^T written into `weight_t` first: the one
  /// kernel behind forward() and infer().
  void affine(const Tensor& input, Tensor& weight_t, Tensor& out) const;

  Parameter weight_;  ///< (out x in)
  Parameter bias_;    ///< (1 x out)
  Tensor cached_input_;
};

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  void infer(const Tensor& input, Tensor& out, Workspace& ws) const override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  /// out = max(input, 0): the kernel behind forward() and infer().
  static void rectify(const Tensor& input, Tensor& out);

  Tensor mask_;
};

/// Inverted dropout: scales kept activations by 1/(1-p) during training.
/// The layer owns its mask stream: a copy of `rng`, restarted by reseed().
/// Models reseed it from their construction Rng after the last weight draw,
/// so the masks continue that stream and never read a caller's dead Rng.
class Dropout : public Layer {
 public:
  Dropout(double p, const Rng& rng);
  void reseed(const Rng& rng) { rng_ = rng; }
  Tensor forward(const Tensor& input, bool training) override;
  /// Identity (a copy): dropout is off at inference.
  void infer(const Tensor& input, Tensor& out, Workspace& ws) const override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  double p_;
  Rng rng_;
  Tensor mask_;
};

/// Batch normalisation over the row (batch) dimension of a [N, C] matrix,
/// with running statistics for inference.
class BatchNorm1d : public Layer {
 public:
  BatchNorm1d(std::size_t num_features, Rng& rng, double momentum = 0.1, double eps = 1e-5,
              std::string name = "bn");

  Tensor forward(const Tensor& input, bool training) override;
  /// Normalises with the running statistics.
  void infer(const Tensor& input, Tensor& out, Workspace& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Parameter*> buffers() override;

  Tensor& running_mean() { return running_mean_.value; }
  Tensor& running_var() { return running_var_.value; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  double eps() const { return eps_; }

 private:
  /// mean[c] and inv_std[c] = 1/√(v + ε) from the running statistics.
  void running_constants(double* mean, double* inv_std) const;
  /// out(i, c) = γ_c·x̂ + β_c with x̂ = (x(i, c) − mean[c])·inv_std[c], in one
  /// row-major pass, also storing x̂ when asked: the per-element map behind
  /// both forward() and infer().
  void normalize(const Tensor& input, const double* mean, const double* inv_std, Tensor& out,
                 Tensor* x_hat) const;

  std::size_t features_;
  double momentum_;
  double eps_;
  Parameter gamma_;  ///< (1 x C)
  Parameter beta_;   ///< (1 x C)
  Parameter running_mean_;  ///< buffer, not optimised
  Parameter running_var_;   ///< buffer, not optimised
  // Caches for backward.
  Tensor x_hat_;
  Tensor batch_var_;
  bool trained_with_batch_ = false;
};

/// Runs layers in order; owns them.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Builder-style append; returns a reference to the added layer.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& input, bool training) override;
  /// Runs every layer's infer() through two ping-pong workspace buffers.
  void infer(const Tensor& input, Tensor& out, Workspace& ws) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Parameter*> buffers() override;

  std::size_t size() const { return layers_.size(); }

  /// Rewrites this stack into its inference-only fused form: every
  /// [Linear → BatchNorm1d? → ReLU?] run becomes one nn::FusedLinear
  /// (batch-norm folded via running statistics, ReLU as an epilogue) and
  /// Dropout layers are removed (identity at inference). Irreversible:
  /// afterwards backward() throws and parameters()/buffers() no longer
  /// expose the folded state — fuse only copies that will never be trained,
  /// serialized, or cloned (see nn/fused.hpp). With QuantMode::kInt8 each
  /// FusedLinear additionally builds (or consumes from `preload`, in layer
  /// order) symmetric int8 tables and runs the integer kernel; see
  /// nn/quant.hpp. Defined in fused.cpp.
  void fuse_inference(QuantMode mode = QuantMode::kOff, QuantTableCursor* preload = nullptr);

  /// Appends one QuantLinearTables per fusable [Linear → BatchNorm1d? →
  /// ReLU?] run, in the same order fuse_inference would fuse them —
  /// quantized from the identical double-precision BN fold, so save-time
  /// collection and fuse-time quantization agree bit-for-bit. Callable on
  /// the unfused (serialized-mode) stack. Defined in fused.cpp.
  void collect_quant_tables(std::vector<QuantLinearTables>& out);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Convenience: builds Linear -> BatchNorm -> ReLU stacks (the per-point
/// shared "MLP" unit of PointNet++-style networks).
std::unique_ptr<Sequential> make_mlp(std::size_t in_features,
                                     const std::vector<std::size_t>& hidden, Rng& rng,
                                     bool batch_norm = true, const std::string& name = "mlp");

}  // namespace gp::nn
