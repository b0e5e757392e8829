// Attention-based multilevel feature fusion (Eq. 2–3 of the paper).
//
// At level k the resized other-level feature F^{l->k} and the native level
// feature F^k are blended:
//     Y^k = S(F^{l->k}) * F^{l->k} + S(F^k) * F^k
// where S(.) is a two-way softmax over scalar gates g(.) (a learned linear
// map, the 1x1-convolution of the paper applied to vector features). The
// gate network g is shared between the two inputs at a level, exactly as in
// Eq. 3 where the same g(.) scores both features.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace gp {

class AttentionFusion {
 public:
  AttentionFusion(std::size_t channels, Rng& rng, const std::string& name);

  /// resized: F^{l->k} (B x C); native: F^k (B x C). Returns Y^k (B x C).
  nn::Tensor forward(const nn::Tensor& resized, const nn::Tensor& native);
  /// Inference-mode forward into `out`: the same blend, no caches.
  void infer(const nn::Tensor& resized, const nn::Tensor& native, nn::Tensor& out) const;

  struct Grads {
    nn::Tensor resized;  ///< dL/dF^{l->k}
    nn::Tensor native;   ///< dL/dF^k
  };
  Grads backward(const nn::Tensor& grad_output);

  std::vector<nn::Parameter*> parameters();

  /// Mean attention weight assigned to the resized feature (diagnostics).
  double mean_resized_weight() const;

  /// Frees the inputs forward() cached for backward(). The per-row weights
  /// stay: mean_resized_weight() reads them.
  void release_caches();

 private:
  /// Y = s1·resized + (1 − s1)·native per row, s1 = softmax gate; stores s1
  /// per row into `s_resized` when non-null. Behind forward() and infer().
  void blend(const nn::Tensor& resized, const nn::Tensor& native, nn::Tensor& out,
             double* s_resized) const;

  std::size_t channels_;
  nn::Parameter gate_weight_;  ///< (1 x C): g(F) = w . F + b
  nn::Parameter gate_bias_;    ///< (1 x 1)
  // Forward caches.
  nn::Tensor resized_;
  nn::Tensor native_;
  std::vector<double> s_resized_;  ///< per-row attention on the resized input
};

}  // namespace gp
