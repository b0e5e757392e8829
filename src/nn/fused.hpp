// Inference-only fused layers (gp::serve hot path, DESIGN.md §8, §11).
//
// FusedLinear collapses a [Linear → BatchNorm1d? → ReLU?] run into one
// kernel at inference time:
//   * the batch-norm affine map is folded into the linear weights
//     (W'_cj = W_cj · γ_c/√(σ²_c+ε), b'_c = (b_c−μ_c)·γ_c/√(σ²_c+ε)+β_c,
//     folding done in double precision once at fuse time);
//   * the weight matrix is stored *transposed* (in × out), the layout the
//     blocked `matmul` (nn/tensor.hpp) consumes, so the f32 path is that one
//     GEMM kernel followed by a single bias (+ ReLU) epilogue pass;
//   * the optional ReLU runs in that epilogue, eliminating the ReLU layer's
//     mask allocation and extra pass.
//
// QuantMode::kInt8 additionally quantizes the double-precision fold into
// symmetric per-output-channel int8 tables (see nn/quant.hpp) at fuse time,
// and forward() switches to the integer kernel: per-row dynamic activation
// scale, int16×int8 → int32 multiply-accumulate, dequantization folded into
// the ReLU epilogue. The kernel runs as an outer product over k-PAIRS: the
// canonical out-major table is re-laid-out at fuse time into an interleaved
// (k/2, out, 2) int16 panel so each accumulator lane consumes two k terms at
// once (one VPDPWSSD per 8 lanes on AVX-VNNI hardware; a scalar paired loop
// elsewhere). The int32 accumulation is exact, so every lane count and both
// code paths produce bitwise-identical results, and all-zero activation
// pairs can be skipped (they contribute exactly 0) — the integer analogue
// of matmul's per-(i,k) zero skip on the f32 path. The int16/int32 scratch
// rows come from the caller's nn::Workspace, so infer() is const and
// reentrant like every other layer's: lanes share the folded tables, never
// the scratch.
//
// Determinism: for each output element the k-accumulation is matmul's
// fixed serial order (f32) or an exact integer reduction (int8), so a
// sample's output depends only on its own input row — never on batch
// composition, thread count, or shard placement. That property is what
// lets gp::serve micro-batch segments from many sessions while keeping
// per-session results bitwise reproducible.
//
// Fused layers are forward-only: backward() throws, parameters()/buffers()
// are empty (the folded weights are no longer the training parameters).
// Fuse only models that will never be trained, serialized, or cloned again
// — gp::serve fuses its private ModelSnapshot copies, never the caller's
// system.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "nn/quant.hpp"

namespace gp::nn {

/// One fused inference kernel; see file comment. Constructed by folding an
/// existing trained Linear (and optionally the BatchNorm1d that follows it,
/// using its *running* statistics) plus an optional ReLU epilogue.
class FusedLinear : public Layer {
 public:
  /// `mode` selects the inference kernel; kInt8 quantizes the
  /// double-precision fold.
  FusedLinear(Linear& linear, BatchNorm1d* bn, bool relu, QuantMode mode = QuantMode::kOff);

  /// infer() with a throwaway workspace.
  Tensor forward(const Tensor& input, bool training) override;
  void infer(const Tensor& input, Tensor& out, Workspace& ws) const override;
  /// Fused layers are inference-only.
  Tensor backward(const Tensor& grad_output) override;

  bool quantized() const { return quant_ == QuantMode::kInt8; }

 private:
  /// One row through the integer kernel; `qx_row` (even width, pad 0) and
  /// `acc_row` (out) are the caller's scratch rows.
  void forward_int8_row(const float* x, float* y, std::vector<std::int16_t>& qx_row,
                        std::vector<std::int32_t>& acc_row) const;

  Tensor weight_t_;  ///< (in × out): transposed, BN-folded weights
  Tensor bias_;      ///< (1 × out): BN-folded bias
  bool relu_;
  QuantMode quant_ = QuantMode::kOff;
  std::vector<float> qscales_;        ///< per-channel weight scales (out)
  std::vector<std::int8_t> qweight_;  ///< out-major int8 weights (out × in)
  /// Interleaved kernel panel built from qweight_ at fuse time:
  /// qwpair_[(k/2)·out·2 + 2j + (k&1)], zero-padded to an even k count.
  std::vector<std::int16_t> qwpair_;
};

}  // namespace gp::nn
