#pragma once
// Retained naive GEMM reference kernels — the bitwise ground truth.
//
// These are serial, untiled copies of the pre-blocking `matmul*` kernels.
// They define the numerical contract the optimized kernels in tensor.cpp
// must reproduce bit-for-bit: per output element, k-terms accumulate in
// ascending order, one rounding per `+=` statement (a single fused
// multiply-add under the project's -ffp-contract regime), and the exact
// zero-skip semantics of the original loops:
//
//   * matmul     skips the j-pass when a(i,k) == 0.0f  — so NaN/Inf in the
//                masked b-row do NOT propagate, and -0.0 outputs survive;
//   * matmul_at  skips when a(k,i) == 0.0f (same rationale).
//
// nn::Linear runs `matmul` on its transposed weight, so every f32 layer of
// the training and unfused inference paths inherits this contract.
// test_gemm_kernel runs the differential battery (optimized vs these,
// memcmp on every shape, plus thread-count invariance) and bench/gemm_bench
// reports the speedup against them. They are header-only and deliberately
// boring: do not "optimize" them.
#include "nn/tensor.hpp"

namespace gp::nn {

inline void matmul_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  check_arg(a.cols() == b.rows(), "matmul_ref inner dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.cols()) out.resize(a.rows(), b.cols());
  out.zero();
  const std::size_t K = a.cols();
  const std::size_t N = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t k = 0; k < K; ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b.row(k);
      for (std::size_t j = 0; j < N; ++j) orow[j] += aik * brow[j];
    }
  }
}

inline void matmul_at_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  check_arg(a.rows() == b.rows(), "matmul_at_ref inner dimension mismatch");
  if (out.rows() != a.cols() || out.cols() != b.cols()) out.resize(a.cols(), b.cols());
  out.zero();
  const std::size_t K = a.rows();
  const std::size_t N = b.cols();
  for (std::size_t k = 0; k < K; ++k) {
    const float* arow = a.row(k);
    const float* brow = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* orow = out.row(i);
      for (std::size_t j = 0; j < N; ++j) orow[j] += aki * brow[j];
    }
  }
}

}  // namespace gp::nn
