#include "nn/fused.hpp"

#include <cmath>
#include <cstring>

// VPDPWSSD on 256-bit vectors: via AVX-VNNI (VEX) or AVX512-VNNI+VL (EVEX).
// The scalar fallback below computes bitwise-identical results (exact int32
// arithmetic), so this is purely a speed gate, never a semantics gate.
#if defined(__AVXVNNI__)
#include <immintrin.h>
#define GP_INT8_VNNI 1
#define GP_DPWSSD(acc, x, w) _mm256_dpwssd_avx_epi32((acc), (x), (w))
#elif defined(__AVX512VNNI__) && defined(__AVX512VL__)
#include <immintrin.h>
#define GP_INT8_VNNI 1
#define GP_DPWSSD(acc, x, w) _mm256_dpwssd_epi32((acc), (x), (w))
#endif

namespace gp::nn {

FusedLinear::FusedLinear(Linear& linear, BatchNorm1d* bn, bool relu, QuantMode mode)
    : relu_(relu), quant_(mode) {
  const Tensor& w = linear.weight().value;  // (out × in)
  const Tensor& b = linear.bias().value;    // (1 × out)
  const std::size_t out = w.rows();
  const std::size_t in = w.cols();
  if (bn != nullptr) {
    check_arg(bn->running_mean().cols() == out, "FusedLinear: BN width mismatch");
  }

  weight_t_ = Tensor(in, out);
  bias_ = Tensor(1, out);
  for (std::size_t c = 0; c < out; ++c) {
    // Fold in double precision: scale = γ/√(σ²+ε) per output channel, the
    // identity map when no batch-norm follows the linear.
    double scale = 1.0;
    double shift = 0.0;
    if (bn != nullptr) {
      const double inv_std =
          1.0 / std::sqrt(static_cast<double>(bn->running_var().at(0, c)) + bn->eps());
      scale = static_cast<double>(bn->gamma().value.at(0, c)) * inv_std;
      shift = static_cast<double>(bn->beta().value.at(0, c)) -
              static_cast<double>(bn->running_mean().at(0, c)) * scale;
    }
    for (std::size_t k = 0; k < in; ++k) {
      weight_t_.at(k, c) = static_cast<float>(static_cast<double>(w.at(c, k)) * scale);
    }
    bias_.at(0, c) = static_cast<float>(static_cast<double>(b.at(0, c)) * scale + shift);
  }

  if (quant_ == QuantMode::kInt8) {
    QuantLinearTables t = quantize_folded(weight_t_.vec(), in, out);
    qscales_ = std::move(t.scales);
    qweight_ = std::move(t.qweight);
    // Interleaved paired-k panel (see header): the kernel consumes two k
    // terms per accumulator lane, so pad odd in-widths with a zero column.
    const std::size_t in_pad = (in + 1) & ~std::size_t{1};
    qwpair_.assign((in_pad / 2) * out * 2, 0);
    for (std::size_t j = 0; j < out; ++j) {
      for (std::size_t k = 0; k < in; ++k) {
        qwpair_[(k / 2) * out * 2 + 2 * j + (k & 1)] =
            static_cast<std::int16_t>(qweight_[j * in + k]);
      }
    }
  }
}

void FusedLinear::forward_int8_row(const float* x, float* y, std::vector<std::int16_t>& qx_row,
                                   std::vector<std::int32_t>& acc_row) const {
  const std::size_t in = weight_t_.rows();
  const std::size_t out = weight_t_.cols();
  const float* bias = bias_.row(0);

  float amax = 0.0f;
#pragma omp simd reduction(max : amax)
  for (std::size_t k = 0; k < in; ++k) {
    const float a = std::fabs(x[k]);
    if (a > amax) amax = a;
  }
  if (amax == 0.0f) {
    // All-zero row: the integer kernel would multiply by a zero scale; the
    // exact answer is just the (folded) bias through the epilogue.
    for (std::size_t j = 0; j < out; ++j) {
      const float v = bias[j];
      y[j] = (relu_ && v < 0.0f) ? 0.0f : v;
    }
    return;
  }

  const float sx = amax / 127.0f;
  const float inv_sx = 127.0f / amax;
  std::int16_t* qx = qx_row.data();
  std::size_t k = 0;
#if defined(GP_INT8_VNNI)
  // Vectorized round-to-nearest-even + clamp. CVTPS2DQ and lrintf both
  // round under the default FE_TONEAREST mode (nothing in this codebase
  // changes the rounding mode), so the two loops produce identical bits.
  {
    const __m256 vs = _mm256_set1_ps(inv_sx);
    const __m256i lo = _mm256_set1_epi32(-127);
    const __m256i hi = _mm256_set1_epi32(127);
    for (; k + 16 <= in; k += 16) {
      __m256i a = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + k), vs));
      __m256i b = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + k + 8), vs));
      a = _mm256_min_epi32(_mm256_max_epi32(a, lo), hi);
      b = _mm256_min_epi32(_mm256_max_epi32(b, lo), hi);
      // packs interleaves 128-bit halves; permute restores element order.
      const __m256i p = _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0xD8);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(qx + k), p);
    }
  }
#endif
  for (; k < in; ++k) {
    long q = std::lrintf(x[k] * inv_sx);
    if (q > 127) q = 127;
    if (q < -127) q = -127;
    qx[k] = static_cast<std::int16_t>(q);
  }
  const std::size_t in_pad = qx_row.size();  // (in+1) & ~1; padding stays 0

  // Paired-k outer product into the int32 accumulator row. Exact int32
  // accumulation (|acc| <= 127*127*in, far below 2^31 for every layer width
  // here): associative, so the VNNI path, the scalar path, and every lane
  // count produce identical bits, and a (0, 0) activation pair can be
  // skipped outright — it contributes exactly 0 to every accumulator.
  std::int32_t* acc = acc_row.data();
  std::memset(acc, 0, out * sizeof(std::int32_t));
  for (std::size_t k = 0; k < in_pad; k += 2) {
    const auto pair = static_cast<std::uint32_t>(static_cast<std::uint16_t>(qx[k])) |
                      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(qx[k + 1])) << 16);
    if (pair == 0) continue;  // ReLU-sparse activations skip whole panels
    const std::int16_t* wr = qwpair_.data() + (k / 2) * out * 2;
    std::size_t j = 0;
#if defined(GP_INT8_VNNI)
    // acc[j..j+7] += qx[k]·wr[2j] + qx[k+1]·wr[2j+1]: one VPDPWSSD per 8
    // lanes, both k terms of the pair fused into the i32 dot-accumulate.
    const __m256i xb = _mm256_set1_epi32(static_cast<std::int32_t>(pair));
    for (; j + 16 <= out; j += 16) {
      __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j));
      __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j + 8));
      const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wr + 2 * j));
      const __m256i w1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wr + 2 * j + 16));
      a0 = GP_DPWSSD(a0, xb, w0);
      a1 = GP_DPWSSD(a1, xb, w1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + j), a0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + j + 8), a1);
    }
#endif
    const std::int32_t x0 = qx[k];
    const std::int32_t x1 = qx[k + 1];
    for (; j < out; ++j) {
      acc[j] += x0 * static_cast<std::int32_t>(wr[2 * j]) +
                x1 * static_cast<std::int32_t>(wr[2 * j + 1]);
    }
  }

  for (std::size_t j = 0; j < out; ++j) {
    // Dequantization folded into the ReLU epilogue.
    const float v = bias[j] + static_cast<float>(acc[j]) * (sx * qscales_[j]);
    y[j] = (relu_ && v < 0.0f) ? 0.0f : v;
  }
}

Tensor FusedLinear::forward(const Tensor& input, bool /*training*/) {
  Tensor out;
  Workspace ws;
  infer(input, out, ws);
  return out;
}

void FusedLinear::infer(const Tensor& input, Tensor& result, Workspace& ws) const {
  const std::size_t in = weight_t_.rows();
  const std::size_t out = weight_t_.cols();
  check_arg(input.cols() == in, "FusedLinear input width mismatch");

  result.resize(input.rows(), out);
  if (quant_ == QuantMode::kInt8) {
    const Workspace::Frame frame(ws);
    std::vector<std::int16_t>& qx = ws.take<std::vector<std::int16_t>>();
    std::vector<std::int32_t>& acc = ws.take<std::vector<std::int32_t>>();
    qx.resize((in + 1) & ~std::size_t{1});
    qx.back() = 0;  // the odd-width pad column must read as 0
    acc.resize(out);
    for (std::size_t i = 0; i < input.rows(); ++i) {
      forward_int8_row(input.row(i), result.row(i), qx, acc);
    }
    return;
  }

  // The blocked GEMM on the folded (in × out) weights: serial k per output
  // element, so a sample's row never depends on batch composition.
  matmul(input, weight_t_, result);
  const float* bias = bias_.row(0);
  for (std::size_t i = 0; i < result.rows(); ++i) {
    float* y = result.row(i);
    for (std::size_t j = 0; j < out; ++j) {
      const float v = y[j] + bias[j];
      y[j] = (relu_ && v < 0.0f) ? 0.0f : v;
    }
  }
}

Tensor FusedLinear::backward(const Tensor& /*grad_output*/) {
  throw Error("FusedLinear is inference-only: backward() on a fused model");
}

// ---- Sequential fuse -------------------------------------------------------

void Sequential::fuse_inference(QuantMode mode) {
  std::vector<std::unique_ptr<Layer>> fused;
  fused.reserve(layers_.size());
  std::size_t i = 0;
  while (i < layers_.size()) {
    if (auto* lin = dynamic_cast<Linear*>(layers_[i].get())) {
      // One fusable [Linear → BatchNorm1d? → ReLU?] run.
      ++i;
      auto* bn = i < layers_.size() ? dynamic_cast<BatchNorm1d*>(layers_[i].get()) : nullptr;
      if (bn != nullptr) ++i;
      const bool relu = i < layers_.size() && dynamic_cast<ReLU*>(layers_[i].get()) != nullptr;
      if (relu) ++i;
      fused.push_back(std::make_unique<FusedLinear>(*lin, bn, relu, mode));
    } else if (dynamic_cast<Dropout*>(layers_[i].get()) != nullptr) {
      ++i;  // identity at inference; drop it
    } else {
      fused.push_back(std::move(layers_[i]));
      ++i;
    }
  }
  layers_ = std::move(fused);
}

}  // namespace gp::nn
