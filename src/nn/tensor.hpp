// Dense float tensor (row-major) plus the matrix kernels the layer library
// is built on. Two-dimensional matrices cover every need of this codebase:
// point clouds are flattened to [rows, channels] before entering layers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"

namespace gp::nn {

class Tensor {
 public:
  Tensor() = default;
  /// Matrix constructor (the common case).
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Reshapes to (rows x cols), reusing the existing allocation whenever
  /// capacity suffices (no shrink-to-fit). Element contents are unspecified
  /// afterwards — callers are expected to overwrite every cell.
  void resize(std::size_t rows, std::size_t cols);

  /// Gaussian init with the given stddev.
  void randn(Rng& rng, double stddev);

  /// Element-wise helpers used by optimisers/fusion code.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator*=(float s);

  /// Frobenius-style reduction for diagnostics.
  double sum() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// The matrix kernels partition work into row panels of the *output* matrix,
// executed on the given ExecContext. Each output element is produced by
// exactly one chunk with the serial accumulation order, so results are
// bitwise-identical for every thread count (see DESIGN.md "Execution
// model"). Small products run inline to avoid dispatch overhead.

/// out = a (rows x k) * b (k x cols). Shapes validated.
void matmul(const Tensor& a, const Tensor& b, Tensor& out,
            exec::ExecContext& ctx = exec::ExecContext::global());
/// out = a (rows x k) * b^T where b is (cols x k).
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out,
               exec::ExecContext& ctx = exec::ExecContext::global());
/// out = a^T (k x rows) * b (k x cols)  => (rows x cols).
void matmul_at(const Tensor& a, const Tensor& b, Tensor& out,
               exec::ExecContext& ctx = exec::ExecContext::global());

/// Channel-wise max pool over consecutive row groups: for g < groups,
/// out(g, col_offset + c) = max over rows [g*m, (g+1)*m) of act(·, c), first
/// maximum winning ties. `argmax` (groups × act.cols(), optional) receives
/// each winning row — the routing table a pooling backward needs. `out` must
/// already hold at least col_offset + act.cols() columns and `groups` rows.
void max_pool_rows(const Tensor& act, std::size_t groups, std::size_t m, Tensor& out,
                   std::size_t col_offset, std::size_t* argmax);

}  // namespace gp::nn
