// Differential battery for the blocked GEMM kernels (DESIGN.md §11).
//
// The optimized matmul/matmul_at in src/nn/tensor.cpp are pinned against
// the retained naive references in src/nn/gemm_ref.hpp: BIT-FOR-BIT (memcmp)
// on every shape in the grid, and bitwise-invariant across GP_THREADS counts.
//
// The shape grid deliberately mixes tile multiples, odd/ragged shapes,
// degenerate vectors, and empty tensors so every remainder-handling branch
// of the register-tiled kernels runs. scripts/verify.sh re-runs this
// binary under -DGP_SANITIZE=address, which turns any out-of-tile read in
// the edge handling into a hard failure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "nn/gemm_ref.hpp"
#include "nn/tensor.hpp"
#include "testkit/digest.hpp"

namespace gp::nn {
namespace {

struct Shape {
  std::size_t m, k, n;
};

// Odd/ragged shapes around the register-tile width, degenerate vectors,
// tall-skinny/wide panels, exact tile multiples, and the layer shapes the
// GesIDNet forward actually runs.
const std::vector<Shape> kShapeGrid{
    {1, 1, 1},     {1, 2, 3},     {2, 3, 4},    {3, 3, 3},    {5, 7, 9},
    {7, 5, 11},    {13, 17, 15},  {17, 17, 17}, {1, 128, 1},  {64, 1, 64},
    {1, 1, 257},   {3, 200, 5},   {200, 3, 2},  {33, 129, 31}, {129, 64, 33},
    {96, 160, 64}, {64, 96, 128}, {128, 128, 128},
};

/// ReLU-style activation fill: `zero_fraction` of entries exactly 0.0f so the
/// zero-skip fast paths in both reference and optimized kernels execute.
void fill(Tensor& t, Rng& rng, double zero_fraction) {
  for (float& v : t.vec()) {
    v = rng.uniform(0.0, 1.0) < zero_fraction
            ? 0.0f
            : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.vec().empty() ||
          std::memcmp(a.vec().data(), b.vec().data(),
                      a.vec().size() * sizeof(float)) == 0);
}

std::string digest_of(const Tensor& t) {
  testkit::Digest d;
  d.add_u64(t.rows());
  d.add_u64(t.cols());
  for (const float v : t.vec()) d.add_f64_bits(static_cast<double>(v));
  return d.hex();
}

TEST(GemmKernel, MatmulBitwiseMatchesReferenceAcrossShapeGrid) {
  Rng rng(0x6E11, 1);
  for (const Shape& s : kShapeGrid) {
    Tensor a(s.m, s.k), b(s.k, s.n);
    fill(a, rng, 0.4);
    fill(b, rng, 0.1);
    Tensor ref, opt;
    matmul_ref(a, b, ref);
    matmul(a, b, opt);
    EXPECT_TRUE(bitwise_equal(ref, opt))
        << "matmul " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernel, MatmulAtBitwiseMatchesReferenceAcrossShapeGrid) {
  Rng rng(0x6E11, 2);
  for (const Shape& s : kShapeGrid) {
    Tensor a(s.k, s.m), b(s.k, s.n);  // a is pre-transposed: out = a^T * b
    fill(a, rng, 0.4);
    fill(b, rng, 0.1);
    Tensor ref, opt;
    matmul_at_ref(a, b, ref);
    matmul_at(a, b, opt);
    EXPECT_TRUE(bitwise_equal(ref, opt))
        << "matmul_at " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernel, EmptyOperandsProduceEmptyOutputs) {
  Tensor a(0, 0), b(0, 0), out(3, 3, 1.0f);
  matmul(a, b, out);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 0u);

  // Zero inner dimension: a well-formed (2x0)*(0x4) product is all zeros.
  Tensor a2(2, 0), b2(0, 4), out2;
  matmul(a2, b2, out2);
  ASSERT_EQ(out2.rows(), 2u);
  ASSERT_EQ(out2.cols(), 4u);
  for (const float v : out2.vec()) EXPECT_EQ(v, 0.0f);

  Tensor ref2;
  matmul_ref(a2, b2, ref2);
  EXPECT_TRUE(bitwise_equal(ref2, out2));
}

// NaN/Inf propagation must match the reference's zero-skip masking exactly:
// a NaN row of b multiplied only by a(i,k) == 0.0f never touches the output
// (the skip fires before the multiply), while any nonzero a(i,k) against a
// NaN/Inf b-row poisons the whole output row.
TEST(GemmKernel, NanInfPropagationMatchesZeroSkipSemantics) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  Tensor a(2, 3), b(3, 4);
  // Row 0 of a masks b-row 1 (the NaN row); row 1 of a touches it.
  a.at(0, 0) = 1.0f;  a.at(0, 1) = 0.0f;  a.at(0, 2) = 2.0f;
  a.at(1, 0) = 1.0f;  a.at(1, 1) = -1.0f; a.at(1, 2) = 0.5f;
  for (std::size_t j = 0; j < 4; ++j) {
    b.at(0, j) = 1.0f + static_cast<float>(j);
    b.at(1, j) = (j == 2) ? inf : nan;
    b.at(2, j) = 0.25f;
  }

  Tensor ref, opt;
  matmul_ref(a, b, ref);
  matmul(a, b, opt);
  EXPECT_TRUE(bitwise_equal(ref, opt));

  // The masked row stays finite; the touched row is poisoned.
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_TRUE(std::isfinite(opt.at(0, j))) << "masked row poisoned at j=" << j;
    EXPECT_FALSE(std::isfinite(opt.at(1, j))) << "NaN row not propagated at j=" << j;
  }

  // Same contract for matmul_at (skip on a(k,i) == 0.0f).
  Tensor at(3, 2);
  at.at(0, 0) = 1.0f;  at.at(0, 1) = 1.0f;
  at.at(1, 0) = 0.0f;  at.at(1, 1) = -1.0f;
  at.at(2, 0) = 2.0f;  at.at(2, 1) = 0.5f;
  Tensor ref_at, opt_at;
  matmul_at_ref(at, b, ref_at);
  matmul_at(at, b, opt_at);
  EXPECT_TRUE(bitwise_equal(ref_at, opt_at));
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_TRUE(std::isfinite(opt_at.at(0, j)));
    EXPECT_FALSE(std::isfinite(opt_at.at(1, j)));
  }
}

// Signed zeros must survive the zero-skip: an all-masked output element is
// produced by out.zero() and never written, so it is +0.0f bit-for-bit.
TEST(GemmKernel, FullyMaskedOutputIsPositiveZeroBits) {
  Tensor a(1, 3), b(3, 2);
  a.at(0, 0) = 0.0f;
  a.at(0, 1) = 0.0f;
  a.at(0, 2) = 0.0f;
  b.at(0, 0) = -5.0f;
  b.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  Tensor ref, opt;
  matmul_ref(a, b, ref);
  matmul(a, b, opt);
  EXPECT_TRUE(bitwise_equal(ref, opt));
  for (const float v : opt.vec()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    EXPECT_EQ(bits, 0u) << "expected +0.0f bits, got sign/NaN leakage";
  }
}

TEST(GemmKernel, ThreadCountBitwiseInvariance) {
  Rng rng(0x6E11, 4);
  exec::ExecContext serial(1);
  exec::ExecContext quad(4);
  for (const Shape& s : kShapeGrid) {
    Tensor a(s.m, s.k), b(s.k, s.n), at(s.k, s.m);
    fill(a, rng, 0.4);
    fill(b, rng, 0.1);
    fill(at, rng, 0.4);

    Tensor o1, o4;
    matmul(a, b, o1, serial);
    matmul(a, b, o4, quad);
    EXPECT_EQ(digest_of(o1), digest_of(o4))
        << "matmul threads 1 vs 4 at " << s.m << "x" << s.k << "x" << s.n;

    matmul_at(at, b, o1, serial);
    matmul_at(at, b, o4, quad);
    EXPECT_EQ(digest_of(o1), digest_of(o4))
        << "matmul_at threads 1 vs 4 at " << s.m << "x" << s.k << "x" << s.n;
  }
}

}  // namespace
}  // namespace gp::nn
