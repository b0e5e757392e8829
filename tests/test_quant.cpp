// int8 quantized inference tests (DESIGN.md §11).
//
//  * quantize_folded round-trip properties: per-channel scale = maxabs/127,
//    round-to-nearest with saturation clamp to [-127, 127], zero-point-free
//    symmetry (quantize(-W) == -quantize(W)), dead-channel handling;
//  * GP_QUANT env parsing (operator boundary: never throws);
//  * FusedLinear kInt8 vs the f32 fused kernel on a single layer — error
//    bounded by the per-element quantization band;
//  * trained GesIDNet: int8 logits within the pinned parity tolerance of
//    the f32 fused logits AND argmax equality on every evaluation sample,
//    both fused from one loaded .gpsy (tables derived at fuse time).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "datasets/dataset.hpp"
#include "datasets/prep.hpp"
#include "exec/exec.hpp"
#include "gesidnet/trainer.hpp"
#include "nn/fused.hpp"
#include "nn/layers.hpp"
#include "nn/quant.hpp"
#include "system/gestureprint.hpp"

namespace gp {
namespace {

using nn::QuantLinearTables;
using nn::QuantMode;

// Pinned logit-parity tolerance for the trained-model test below: the int8
// path quantizes activations per row (sx = amax/127) and weights per channel
// (sw = maxabs/127), so each layer contributes relative error on the order
// of 1/254 per operand; across GesIDNet's fused MLP stacks the empirical
// worst-case logit deviation on this config is well under 0.1. 0.25 gives
// ~3x headroom while still catching a broken kernel (logits span several
// units apart at trained margins).
constexpr double kLogitParityTol = 0.25;

DatasetSpec small_spec(const std::string& name) {
  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 3;
  DatasetSpec spec = gestureprint_spec(0, scale);
  spec.gestures.resize(3);
  spec.name = name;
  return spec;
}

// ---- quantizer properties --------------------------------------------------

TEST(QuantizeFolded, ScaleIsMaxAbsOver127PerChannel) {
  // weight_t layout: (in x out) row-major — column c is channel c.
  const std::size_t in = 3, out = 2;
  std::vector<float> w(in * out, 0.0f);
  w[0 * out + 0] = 0.5f;
  w[1 * out + 0] = -2.54f;  // channel 0 maxabs
  w[2 * out + 0] = 1.0f;
  w[0 * out + 1] = 0.127f;  // channel 1 maxabs
  w[1 * out + 1] = -0.1f;
  const QuantLinearTables t = nn::quantize_folded(w, in, out);
  ASSERT_EQ(t.in, in);
  ASSERT_EQ(t.out, out);
  ASSERT_EQ(t.scales.size(), out);
  ASSERT_EQ(t.qweight.size(), in * out);
  EXPECT_FLOAT_EQ(t.scales[0], 2.54f / 127.0f);
  EXPECT_FLOAT_EQ(t.scales[1], 0.127f / 127.0f);
  // The maxabs element always lands exactly on ±127.
  EXPECT_EQ(t.qweight[0 * in + 1], -127);  // out-major: channel 0, k=1
  EXPECT_EQ(t.qweight[1 * in + 0], 127);   // channel 1, k=0
}

TEST(QuantizeFolded, RoundTripErrorWithinHalfScaleAndClamped) {
  Rng rng(0x0A81, 1);
  const std::size_t in = 37, out = 11;
  std::vector<float> w(in * out);
  for (float& v : w) v = static_cast<float>(rng.uniform(-3.0, 3.0));
  const QuantLinearTables t = nn::quantize_folded(w, in, out);
  for (std::size_t c = 0; c < out; ++c) {
    ASSERT_GT(t.scales[c], 0.0f);
    for (std::size_t k = 0; k < in; ++k) {
      const std::int8_t q = t.qweight[c * in + k];
      EXPECT_GE(q, -127);  // -128 never produced (symmetric range)
      EXPECT_LE(q, 127);
      const double recon = static_cast<double>(q) * static_cast<double>(t.scales[c]);
      const double orig = static_cast<double>(w[k * out + c]);
      // Round-to-nearest: reconstruction error <= scale/2 (+1 ulp slack).
      EXPECT_LE(std::fabs(recon - orig),
                0.5 * static_cast<double>(t.scales[c]) * (1.0 + 1e-5))
          << "c=" << c << " k=" << k;
    }
  }
}

TEST(QuantizeFolded, ZeroPointFreeSymmetry) {
  Rng rng(0x0A81, 2);
  const std::size_t in = 16, out = 8;
  std::vector<float> w(in * out), neg(in * out);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    neg[i] = -w[i];
  }
  const QuantLinearTables tp = nn::quantize_folded(w, in, out);
  const QuantLinearTables tn = nn::quantize_folded(neg, in, out);
  ASSERT_EQ(tp.qweight.size(), tn.qweight.size());
  for (std::size_t c = 0; c < out; ++c) EXPECT_FLOAT_EQ(tp.scales[c], tn.scales[c]);
  for (std::size_t i = 0; i < tp.qweight.size(); ++i) {
    EXPECT_EQ(static_cast<int>(tp.qweight[i]), -static_cast<int>(tn.qweight[i]))
        << "negation must mirror exactly (no zero point)";
  }
}

TEST(QuantizeFolded, DeadChannelStoresZeroScaleAndZeroWeights) {
  const std::size_t in = 4, out = 3;
  std::vector<float> w(in * out, 0.0f);
  for (std::size_t k = 0; k < in; ++k) w[k * out + 1] = 1.0f;  // only channel 1 alive
  const QuantLinearTables t = nn::quantize_folded(w, in, out);
  EXPECT_FLOAT_EQ(t.scales[0], 0.0f);
  EXPECT_FLOAT_EQ(t.scales[2], 0.0f);
  for (std::size_t k = 0; k < in; ++k) {
    EXPECT_EQ(t.qweight[0 * in + k], 0);
    EXPECT_EQ(t.qweight[2 * in + k], 0);
    EXPECT_EQ(t.qweight[1 * in + k], 127);
  }
}

// ---- GP_QUANT env boundary -------------------------------------------------

TEST(QuantEnv, ParsesInt8OffAndGarbage) {
  ::setenv("GP_QUANT", "int8", 1);
  EXPECT_EQ(nn::quant_mode_from_env(QuantMode::kOff), QuantMode::kInt8);
  ::setenv("GP_QUANT", "off", 1);
  EXPECT_EQ(nn::quant_mode_from_env(QuantMode::kInt8), QuantMode::kOff);
  ::setenv("GP_QUANT", "bf16", 1);  // unknown → warn, keep fallback
  EXPECT_EQ(nn::quant_mode_from_env(QuantMode::kOff), QuantMode::kOff);
  ::unsetenv("GP_QUANT");
  EXPECT_EQ(nn::quant_mode_from_env(QuantMode::kInt8), QuantMode::kInt8);
  EXPECT_STREQ(nn::quant_mode_name(QuantMode::kOff), "off");
  EXPECT_STREQ(nn::quant_mode_name(QuantMode::kInt8), "int8");
}

// ---- single-layer kernel band ----------------------------------------------

TEST(FusedInt8, SingleLayerMatchesF32WithinQuantizationBand) {
  Rng rng(0x0A81, 3);
  const std::size_t in = 48, out = 33, batch = 9;  // odd out: remainder lanes
  nn::Linear lin(in, out, rng);
  nn::Tensor x(batch, in);
  for (float& v : x.vec()) {
    v = rng.uniform(0.0, 1.0) < 0.4 ? 0.0f : static_cast<float>(rng.uniform(-1.5, 1.5));
  }
  nn::FusedLinear f32(lin, nullptr, true);
  nn::FusedLinear i8(lin, nullptr, true, QuantMode::kInt8);
  EXPECT_FALSE(f32.quantized());
  EXPECT_TRUE(i8.quantized());
  const nn::Tensor y32 = f32.forward(x, false);
  const nn::Tensor y8 = i8.forward(x, false);
  ASSERT_EQ(y32.rows(), y8.rows());
  ASSERT_EQ(y32.cols(), y8.cols());
  // Per-element band: |err| <= sum over k of quantization error of each
  // operand product; bound loosely by in * (sx*sw) with sx, sw <= maxabs/127.
  for (std::size_t r = 0; r < batch; ++r) {
    float amax = 0.0f;
    for (std::size_t k = 0; k < in; ++k) amax = std::max(amax, std::fabs(x.at(r, k)));
    const double band = static_cast<double>(in) * (amax / 127.0) * 0.1 + 1e-4;
    for (std::size_t c = 0; c < out; ++c) {
      EXPECT_NEAR(y32.at(r, c), y8.at(r, c), band) << "r=" << r << " c=" << c;
    }
  }
}

TEST(FusedInt8, ForwardIsBitwiseRepeatable) {
  Rng rng(0x0A81, 4);
  const std::size_t in = 30, out = 17;  // odd in: zero-padded k pair
  nn::Linear lin(in, out, rng);
  nn::Tensor x(5, in);
  for (float& v : x.vec()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  nn::FusedLinear i8(lin, nullptr, false, QuantMode::kInt8);
  const nn::Tensor a = i8.forward(x, false);
  const nn::Tensor b = i8.forward(x, false);
  EXPECT_TRUE(a.vec() == b.vec()) << "int8 kernel must be bitwise repeatable";
}

// ---- trained GesIDNet parity -----------------------------------------------

struct TrainedPair {
  GesturePrintConfig config;
  Dataset dataset;
  std::filesystem::path dir;
  std::string model_path;
};

TrainedPair train_and_save(const std::string& tag) {
  TrainedPair p;
  p.config.training.epochs = 8;
  p.config.training.batch_size = 8;
  p.config.eval_rounds = 1;
  exec::ExecContext ctx(2);
  p.dataset = generate_dataset(small_spec(tag), ctx);
  GesturePrintSystem system(p.config);
  system.fit(p.dataset, all_indices(p.dataset));
  p.dir = std::filesystem::temp_directory_path() / ("gp_quant_" + tag);
  std::filesystem::remove_all(p.dir);
  std::filesystem::create_directories(p.dir);
  p.model_path = (p.dir / "system.gpsy").string();
  system.save(p.model_path);
  return p;
}

TEST(QuantParity, TrainedGesIDNetArgmaxEqualAndLogitsWithinTolerance) {
  const TrainedPair p = train_and_save("parity");

  GesturePrintSystem f32(p.config), i8(p.config);
  f32.load(p.model_path);
  i8.load(p.model_path);
  f32.fuse_for_inference(QuantMode::kOff);
  i8.fuse_for_inference(QuantMode::kInt8);

  Rng prep_rng(31);
  const LabeledSamples labeled =
      prepare_subset(p.dataset, all_indices(p.dataset), LabelKind::kGesture,
                     PrepConfig{}, prep_rng);
  const nn::Tensor l32 = predict_logits(f32.gesture_model(), labeled.samples, 8);
  const nn::Tensor l8 = predict_logits(i8.gesture_model(), labeled.samples, 8);
  ASSERT_EQ(l32.rows(), l8.rows());
  ASSERT_EQ(l32.cols(), l8.cols());
  ASSERT_GT(l32.rows(), 0u);

  double max_abs_diff = 0.0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < l32.rows(); ++i) {
    std::size_t a32 = 0, a8 = 0;
    for (std::size_t c = 0; c < l32.cols(); ++c) {
      max_abs_diff = std::max(
          max_abs_diff, std::fabs(static_cast<double>(l32.at(i, c)) - l8.at(i, c)));
      if (l32.at(i, c) > l32.at(i, a32)) a32 = c;
      if (l8.at(i, c) > l8.at(i, a8)) a8 = c;
    }
    if (a32 != a8) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << "argmax must agree on every evaluation sample (" << l32.rows() << " samples)";
  EXPECT_LE(max_abs_diff, kLogitParityTol)
      << "int8 logits drifted beyond the pinned parity tolerance";
  std::filesystem::remove_all(p.dir);
}

}  // namespace
}  // namespace gp
