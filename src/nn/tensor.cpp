#include "nn/tensor.hpp"

#include <algorithm>
#include <limits>

#include "common/mem.hpp"

namespace gp::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);  // keeps capacity on shrink; grows if needed
  // Debug mode (GP_POISON_RESIZE=1): contents after resize are documented
  // unspecified, so poison every cell with NaN — a caller that reads a
  // stale value propagates NaN instead of silently reusing old data.
  if (mem::poison_resize_enabled()) {
    std::fill(data_.begin(), data_.end(), std::numeric_limits<float>::quiet_NaN());
  }
}

void Tensor::randn(Rng& rng, double stddev) {
  for (auto& v : data_) v = static_cast<float>(rng.gaussian(0.0, stddev));
}

Tensor& Tensor::operator+=(const Tensor& other) {
  check_arg(rows_ == other.rows_ && cols_ == other.cols_, "tensor shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

double Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return acc;
}

namespace {

/// Below this many multiply-adds a kernel runs inline: the parallel-region
/// dispatch would cost more than the arithmetic it distributes.
constexpr std::size_t kParallelMinFlops = 32 * 1024;

/// Inner-dimension tile: keeps the touched panel of `b` resident in cache
/// while successive output rows stream over it. Iterating k-tiles in
/// ascending order preserves the serial accumulation order exactly.
constexpr std::size_t kKTile = 128;

/// Register tile: rows of `a` (matmul) / output rows (matmul_at) advanced
/// together so one streamed b-row feeds kMR independent accumulation chains.
/// Each chain still rounds once per `+=` statement, so tiling only reorders
/// work *across* output elements, never within one element's k-sum.
constexpr std::size_t kMR = 4;

/// Row-panel size for one chunk of output rows. Fixed (not derived from the
/// thread count) so chunk boundaries are reproducible; each output element
/// lives in exactly one panel, so this only affects scheduling anyway.
std::size_t row_grain(std::size_t rows, std::size_t flops_per_row) {
  // Aim for panels worth ~256k flops so dispatch overhead stays <1%.
  const std::size_t target = std::max<std::size_t>(1, (256 * 1024) / std::max<std::size_t>(1, flops_per_row));
  return std::min(rows, target);
}

#define GP_RESTRICT __restrict__

/// One a-row's rank-1 update of one out-row, preserving the reference
/// kernels' zero-skip: the j-pass is suppressed entirely when aik == 0.0f.
inline void axpy_row(float aik, const float* GP_RESTRICT brow, float* GP_RESTRICT orow,
                     std::size_t n) {
  if (aik == 0.0f) return;
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out, exec::ExecContext& ctx) {
  check_arg(a.cols() == b.rows(), "matmul inner dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.cols()) out.resize(a.rows(), b.cols());
  out.zero();
  const std::size_t K = a.cols();
  const std::size_t N = b.cols();

  // Blocked panel kernel: k-tiles keep the touched slice of `b` cache
  // resident; inside a tile, kMR output rows advance together so each
  // streamed b-row feeds kMR independent fma chains (latency hiding + 4x
  // b-row reuse). Per output element the k-accumulation order and the
  // per-(i,k) zero-skip match the naive reference bit-for-bit: interleaving
  // rows never reorders one element's own serial k-sum.
  const auto panel = [&](std::size_t rb, std::size_t re) {
    for (std::size_t k0 = 0; k0 < K; k0 += kKTile) {
      const std::size_t k1 = std::min(K, k0 + kKTile);
      std::size_t i = rb;
      for (; i + kMR <= re; i += kMR) {
        const float* GP_RESTRICT ar0 = a.row(i);
        const float* GP_RESTRICT ar1 = a.row(i + 1);
        const float* GP_RESTRICT ar2 = a.row(i + 2);
        const float* GP_RESTRICT ar3 = a.row(i + 3);
        float* GP_RESTRICT or0 = out.row(i);
        float* GP_RESTRICT or1 = out.row(i + 1);
        float* GP_RESTRICT or2 = out.row(i + 2);
        float* GP_RESTRICT or3 = out.row(i + 3);
        for (std::size_t k = k0; k < k1; ++k) {
          const float a0 = ar0[k];
          const float a1 = ar1[k];
          const float a2 = ar2[k];
          const float a3 = ar3[k];
          const float* GP_RESTRICT brow = b.row(k);
          if (a0 != 0.0f && a1 != 0.0f && a2 != 0.0f && a3 != 0.0f) {
            // Fast path: all four rows live for this k.
#pragma omp simd
            for (std::size_t j = 0; j < N; ++j) {
              const float bj = brow[j];
              or0[j] += a0 * bj;
              or1[j] += a1 * bj;
              or2[j] += a2 * bj;
              or3[j] += a3 * bj;
            }
          } else {
            // Mixed-liveness path: honor the reference's per-row skip so a
            // NaN/Inf in the masked b-row stays masked and -0.0 survives.
            axpy_row(a0, brow, or0, N);
            axpy_row(a1, brow, or1, N);
            axpy_row(a2, brow, or2, N);
            axpy_row(a3, brow, or3, N);
          }
        }
      }
      for (; i < re; ++i) {  // ragged row tail
        const float* GP_RESTRICT arow = a.row(i);
        float* GP_RESTRICT orow = out.row(i);
        for (std::size_t k = k0; k < k1; ++k) axpy_row(arow[k], b.row(k), orow, N);
      }
    }
  };

  const std::size_t flops = a.rows() * K * N;
  if (flops < kParallelMinFlops || ctx.threads() <= 1) {
    panel(0, a.rows());
    return;
  }
  ctx.parallel_for_chunks(0, a.rows(), row_grain(a.rows(), K * N), panel);
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out, exec::ExecContext& ctx) {
  check_arg(a.cols() == b.cols(), "matmul_bt inner dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.rows()) out.resize(a.rows(), b.rows());
  const std::size_t K = a.cols();
  const std::size_t N = b.rows();

  // Dot-product form: each out(i,j) is one serial ascending-k reduction.
  // This kernel is deliberately LEFT IN ITS ORIGINAL SOURCE FORM. The
  // pipeline goldens pin the exact bits of the float chain this loop
  // compiles to, and that chain is contraction-context-dependent (the
  // compiler's vector body sums mul-then-add while its scalar path fuses —
  // which mix a given K gets depends on codegen details a restructured
  // packed kernel cannot reproduce portably). A blocked rewrite here would
  // be answer-changing, so the battery in test_gemm_kernel band-checks this
  // kernel against the reference instead of requiring bit-equality — and
  // pins exact thread-count invariance, which chunking does guarantee.
  // The serve hot path does not pass through here (FusedLinear carries its
  // own epilogue-fused kernels), so raw speed matters least of the three.
  const auto panel = [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      const float* arow = a.row(i);
      float* orow = out.row(i);
      for (std::size_t j = 0; j < N; ++j) {
        const float* brow = b.row(j);
        float acc = 0.0f;
        for (std::size_t k = 0; k < K; ++k) acc += arow[k] * brow[k];
        orow[j] = acc;
      }
    }
  };

  const std::size_t flops = a.rows() * K * N;
  if (flops < kParallelMinFlops || ctx.threads() <= 1) {
    panel(0, a.rows());
    return;
  }
  ctx.parallel_for_chunks(0, a.rows(), row_grain(a.rows(), K * N), panel);
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& out, exec::ExecContext& ctx) {
  check_arg(a.rows() == b.rows(), "matmul_at inner dimension mismatch");
  if (out.rows() != a.cols() || out.cols() != b.cols()) out.resize(a.cols(), b.cols());
  out.zero();
  const std::size_t K = a.rows();  // reduction dimension
  const std::size_t N = b.cols();

  // A chunk owns output rows [ib, ie) — i.e. columns [ib, ie) of `a`. The
  // k-loop stays outermost (ascending) inside each chunk, so every output
  // element accumulates its k-terms in the same order as the serial
  // reference; kMR output rows advance together per k so one streamed b-row
  // feeds kMR independent chains, with the per-(k,i) zero-skip preserved.
  const auto panel = [&](std::size_t ib, std::size_t ie) {
    for (std::size_t k = 0; k < K; ++k) {
      const float* GP_RESTRICT arow = a.row(k);
      const float* GP_RESTRICT brow = b.row(k);
      std::size_t i = ib;
      for (; i + kMR <= ie; i += kMR) {
        const float a0 = arow[i];
        const float a1 = arow[i + 1];
        const float a2 = arow[i + 2];
        const float a3 = arow[i + 3];
        if (a0 != 0.0f && a1 != 0.0f && a2 != 0.0f && a3 != 0.0f) {
          float* GP_RESTRICT or0 = out.row(i);
          float* GP_RESTRICT or1 = out.row(i + 1);
          float* GP_RESTRICT or2 = out.row(i + 2);
          float* GP_RESTRICT or3 = out.row(i + 3);
#pragma omp simd
          for (std::size_t j = 0; j < N; ++j) {
            const float bj = brow[j];
            or0[j] += a0 * bj;
            or1[j] += a1 * bj;
            or2[j] += a2 * bj;
            or3[j] += a3 * bj;
          }
        } else {
          axpy_row(a0, brow, out.row(i), N);
          axpy_row(a1, brow, out.row(i + 1), N);
          axpy_row(a2, brow, out.row(i + 2), N);
          axpy_row(a3, brow, out.row(i + 3), N);
        }
      }
      for (; i < ie; ++i) axpy_row(arow[i], brow, out.row(i), N);  // ragged tail
    }
  };

  const std::size_t flops = a.cols() * K * N;
  if (flops < kParallelMinFlops || ctx.threads() <= 1) {
    panel(0, a.cols());
    return;
  }
  ctx.parallel_for_chunks(0, a.cols(), row_grain(a.cols(), K * N), panel);
}

void max_pool_rows(const Tensor& act, std::size_t groups, std::size_t m, Tensor& out,
                   std::size_t col_offset, std::size_t* argmax) {
  const std::size_t cs = act.cols();
  check_arg(m > 0 && act.rows() == groups * m, "max_pool_rows: rows are not groups x m");
  check_arg(out.rows() >= groups && out.cols() >= col_offset + cs,
            "max_pool_rows: output too small");
  for (std::size_t g = 0; g < groups; ++g) {
    float* dst = out.row(g) + col_offset;
    for (std::size_t c = 0; c < cs; ++c) {
      std::size_t best_row = g * m;
      float best = act.at(best_row, c);
      for (std::size_t j = 1; j < m; ++j) {
        const float v = act.at(g * m + j, c);
        if (v > best) {
          best = v;
          best_row = g * m + j;
        }
      }
      dst[c] = best;
      if (argmax != nullptr) argmax[g * cs + c] = best_row;
    }
  }
}

}  // namespace gp::nn
