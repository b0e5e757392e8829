// Post-training int8 symmetric quantization for the fused inference path.
//
// Scheme (zero-point-free, per-output-channel):
//   * weights: after the BatchNorm fold, each output channel c of a
//     FusedLinear gets scale_w[c] = maxabs(W[:,c]) / 127; the channel is
//     stored as int8 in [-127, 127] (round-to-nearest via lrintf, saturated).
//     A dead channel (maxabs == 0) stores scale 0 and all-zero weights.
//   * activations: per input row, a dynamic scale sx = maxabs(x) / 127; the
//     row is quantized once into a reusable int16 scratch so the inner loop
//     is a pure int16*int16 -> int32 multiply-accumulate the vectorizer can
//     lower to pmaddwd/vpdpwssd.
//   * accumulation is exact int32 (127*127*K stays far below 2^31 for every
//     layer width in this codebase), so the integer loop is associative and
//     bitwise-deterministic regardless of vector width or thread count.
//   * dequantization folds into the ReLU epilogue:
//       y[j] = bias[j] + float(acc) * (sx * scale_w[j]), then the clamp.
//
// Tables are computed at fuse_for_inference() time from the exact
// double-precision BN-folded weights; a .gpsy file stores only the f32
// state they are derived from.
#pragma once

#include <cstdint>
#include <vector>

namespace gp::nn {

/// Inference quantization mode. kOff keeps the f32 fused path; kInt8
/// enables the symmetric int8 path.
enum class QuantMode : std::uint8_t { kOff = 0, kInt8 = 1 };

/// GP_QUANT env override: "int8" selects QuantMode::kInt8; empty/unset keeps
/// `fallback`; anything else warns and keeps `fallback` (never throws — this
/// guards an operator-facing env boundary, same contract as GP_ABSTAIN_MARGIN).
QuantMode quant_mode_from_env(QuantMode fallback = QuantMode::kOff);

/// Human-readable mode name ("off" / "int8") for logs, metrics and bench JSON.
const char* quant_mode_name(QuantMode mode);

/// Quantized tables for one fused (BN-folded) linear layer. `qweight` is
/// out-major: channel c occupies qweight[c*in .. c*in+in), so the int8 inner
/// loop streams one contiguous channel per output.
struct QuantLinearTables {
  std::uint32_t in = 0;
  std::uint32_t out = 0;
  std::vector<float> scales;        ///< per-output-channel weight scales, size out
  std::vector<std::int8_t> qweight; ///< out-major int8 weights, size in*out
};

/// Quantizes a BN-folded weight matrix given in transposed (in x out,
/// column-per-channel) layout — exactly FusedLinear's weight_t layout.
/// Deterministic: round-to-nearest (lrintf), saturation clamp to [-127, 127].
QuantLinearTables quantize_folded(const std::vector<float>& weight_t, std::size_t in,
                                  std::size_t out);

}  // namespace gp::nn
