// Blocked-GEMM + int8 kernel evidence (DESIGN.md §11, ROADMAP item 1).
//
// Times the cache-blocked/register-tiled kernels in src/nn/tensor.cpp
// against the retained naive references (src/nn/gemm_ref.hpp) across the
// layer shapes the GesIDNet forward/backward actually runs, plus one int8
// fused-layer row (FusedLinear kInt8 vs the f32 fused kernel). Every f32
// row re-runs the differential check inline — matmul/matmul_at bitwise,
// matmul_bt band-checked (see gemm_ref.hpp for why) — so a speedup number
// can never be reported for a kernel that drifted.
//
// Emits <output_dir>/BENCH_gemm.json (metrics `<kernel>.<m>x<k>x<n>.*`) and
// self-checks on the exit code:
//  1. every differential check passes;
//  2. the blocked kernels are not slower than the naive references overall
//     (geometric-mean speedup >= 1.0 across the swept shapes).
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "nn/fused.hpp"
#include "nn/gemm_ref.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "obs/bench_json.hpp"

namespace {

using namespace gp;
using Clock = std::chrono::steady_clock;

struct Shape {
  std::size_t m, k, n;

  std::string name() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
  }
};

/// Fills `t` with a mix of ReLU-style zeros and finite values — the
/// activation distribution the zero-skip fast paths actually see.
void fill(nn::Tensor& t, Rng& rng, double zero_fraction) {
  for (float& v : t.vec()) {
    v = rng.uniform(0.0, 1.0) < zero_fraction
            ? 0.0f
            : static_cast<float>(rng.uniform(-1.5, 1.5));
  }
}

double time_ms(const std::function<void()>& fn, int reps) {
  fn();  // warm
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < reps; ++r) fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count() /
         static_cast<double>(reps);
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.vec().data(), b.vec().data(), a.vec().size() * sizeof(float)) == 0;
}

/// Band check for matmul_bt: per element within a few ulps of the reference
/// (the contraction-mix tolerance documented in gemm_ref.hpp).
bool band_equal(const nn::Tensor& a, const nn::Tensor& b, std::size_t k_terms) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const double tol_scale = 8.0 * static_cast<double>(k_terms) *
                           static_cast<double>(std::numeric_limits<float>::epsilon());
  for (std::size_t i = 0; i < a.vec().size(); ++i) {
    const double x = a.vec()[i];
    const double y = b.vec()[i];
    const double mag = std::max({std::fabs(x), std::fabs(y), 1.0});
    if (std::fabs(x - y) > tol_scale * mag) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace gp;
  bench::banner("gemm_bench", "DESIGN.md §11 (kernel evidence; not in the paper)");

  exec::ExecContext ctx;  // honors GP_THREADS like the real stack
  Rng rng(0xBE5C, 1);
  obs::BenchDoc doc("gemm", ctx.threads());
  bool checks_ok = true;
  double log_sum = 0.0;  // over the blocked-vs-naive speedups
  std::size_t counted = 0;

  // Adds one timed row: ref is the naive reference (or the f32 fused kernel
  // for fused_int8), opt the blocked (or int8) kernel.
  const auto add_row = [&](const std::string& prefix, double flops, double ref_ms,
                           double opt_ms) {
    const double speedup = opt_ms > 0.0 ? ref_ms / opt_ms : 0.0;
    const double gflops = opt_ms > 0.0 ? flops / (opt_ms * 1.0e6) : 0.0;
    doc.add(prefix + ".ref_ms", "ms", ref_ms);
    doc.add(prefix + ".opt_ms", "ms", opt_ms);
    doc.add(prefix + ".speedup", "x", speedup);
    doc.add(prefix + ".gflops", "GFLOP/s", gflops);
    return speedup;
  };

  // Layer shapes from the GesIDNet MLP stacks and heads plus two larger
  // panels that exercise the k-tiling; batch dimension = micro-batch sizes.
  const std::vector<Shape> shapes{
      {32, 24, 32}, {64, 48, 64}, {64, 64, 96}, {64, 96, 128},
      {128, 128, 128}, {256, 64, 96},
  };

  for (const Shape& s : shapes) {
    nn::Tensor a(s.m, s.k), b(s.k, s.n), bt(s.n, s.k), at(s.k, s.m);
    fill(a, rng, 0.45);
    fill(b, rng, 0.0);
    fill(bt, rng, 0.0);
    fill(at, rng, 0.45);
    const double flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                         static_cast<double>(s.n);
    const int reps = std::max(4, static_cast<int>(4.0e7 / flops));

    struct Variant {
      const char* name;
      std::function<void(nn::Tensor&)> ref;
      std::function<void(nn::Tensor&)> opt;
      bool bitwise;
    };
    const std::vector<Variant> variants{
        {"matmul", [&](nn::Tensor& o) { nn::matmul_ref(a, b, o); },
         [&](nn::Tensor& o) { nn::matmul(a, b, o, ctx); }, true},
        {"matmul_bt", [&](nn::Tensor& o) { nn::matmul_bt_ref(a, bt, o); },
         [&](nn::Tensor& o) { nn::matmul_bt(a, bt, o, ctx); }, false},
        {"matmul_at", [&](nn::Tensor& o) { nn::matmul_at_ref(at, b, o); },
         [&](nn::Tensor& o) { nn::matmul_at(at, b, o, ctx); }, true},
    };
    for (const Variant& v : variants) {
      nn::Tensor ref_out, opt_out;
      v.ref(ref_out);
      v.opt(opt_out);
      const bool ok = v.bitwise ? bitwise_equal(ref_out, opt_out)
                                : band_equal(ref_out, opt_out, s.k);
      if (!ok) {
        std::cout << "FAIL: " << v.name << " m=" << s.m << " k=" << s.k << " n=" << s.n
                  << " diverged from the naive reference\n";
        checks_ok = false;
      }
      const std::string prefix = std::string(v.name) + "." + s.name();
      const char* check = v.bitwise ? "bitwise" : "band";
      const double ref_ms = time_ms([&] { v.ref(ref_out); }, reps);
      const double opt_ms = time_ms([&] { v.opt(opt_out); }, reps);
      const double speedup = add_row(prefix, flops, ref_ms, opt_ms);
      doc.add(prefix + "." + check + "_ok", "bool", ok ? 1.0 : 0.0);
      if (speedup > 0.0) {
        log_sum += std::log(speedup);
        ++counted;
      }
      std::cout << "  " << prefix << ": ref " << ref_ms << " ms, opt " << opt_ms << " ms ("
                << speedup << "x, " << check << ")\n";
    }
  }

  // int8 fused-layer row: FusedLinear kInt8 vs the f32 fused kernel on a
  // representative (in, out) with ReLU-sparse activations. ref here is the
  // f32 fused forward; it stays out of the blocked-vs-naive geomean.
  {
    const Shape s{64, 96, 128};  // (batch, in, out)
    Rng lrng(0xBE5C, 2);
    nn::Linear lin(s.k, s.n, lrng);
    nn::Tensor x(s.m, s.k);
    fill(x, rng, 0.45);
    nn::FusedLinear f32(lin, nullptr, true);
    nn::FusedLinear i8(lin, nullptr, true, nn::QuantMode::kInt8);
    nn::Tensor y32, y8;
    const int reps = 200;
    const double ref_ms = time_ms([&] { y32 = f32.forward(x, false); }, reps);
    const double opt_ms = time_ms([&] { y8 = i8.forward(x, false); }, reps);
    const double speedup = add_row("fused_int8." + s.name(),
                                   2.0 * static_cast<double>(s.m * s.k * s.n), ref_ms, opt_ms);
    std::cout << "  fused_int8." << s.name() << ": f32 " << ref_ms << " ms, int8 " << opt_ms
              << " ms (" << speedup << "x)\n";
  }

  std::cout << "\nWrote " << doc.write(output_dir()) << "\n";

  const double geomean = counted > 0 ? std::exp(log_sum / static_cast<double>(counted)) : 0.0;
  std::cout << "Geomean blocked-vs-naive speedup: " << geomean << "x\n";
  bool ok = checks_ok;
  if (geomean < 1.0) {
    std::cout << "FAIL: blocked kernels slower than the naive reference overall\n";
    ok = false;
  }
  std::cout << (ok ? "GEMM invariants hold.\n" : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
