#include "nn/quant.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace gp::nn {

QuantMode quant_mode_from_env(QuantMode fallback) {
  const char* v = std::getenv("GP_QUANT");
  if (v == nullptr || *v == '\0') return fallback;
  const std::string s(v);
  if (s == "int8") return QuantMode::kInt8;
  if (s == "off") return QuantMode::kOff;
  log_warn() << "ignoring invalid GP_QUANT='" << s << "' (want 'int8' or 'off')";
  return fallback;
}

const char* quant_mode_name(QuantMode mode) {
  return mode == QuantMode::kInt8 ? "int8" : "off";
}

QuantLinearTables quantize_folded(const std::vector<float>& weight_t, std::size_t in,
                                  std::size_t out) {
  check_arg(weight_t.size() == in * out, "quantize_folded: weight size mismatch");
  QuantLinearTables t;
  t.in = static_cast<std::uint32_t>(in);
  t.out = static_cast<std::uint32_t>(out);
  t.scales.assign(out, 0.0f);
  t.qweight.assign(in * out, 0);
  for (std::size_t c = 0; c < out; ++c) {
    float maxabs = 0.0f;
    for (std::size_t k = 0; k < in; ++k) {
      const float w = std::fabs(weight_t[k * out + c]);
      if (w > maxabs) maxabs = w;
    }
    if (maxabs == 0.0f) continue;  // dead channel: scale 0, all-zero weights
    const float scale = maxabs / 127.0f;
    t.scales[c] = scale;
    std::int8_t* qrow = t.qweight.data() + c * in;
    for (std::size_t k = 0; k < in; ++k) {
      long q = std::lrintf(weight_t[k * out + c] / scale);
      if (q > 127) q = 127;
      if (q < -127) q = -127;
      qrow[k] = static_cast<std::int8_t>(q);
    }
  }
  return t;
}

}  // namespace gp::nn
