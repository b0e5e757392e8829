#include "dsp/fft.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace gp::dsp {

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_pow2_inplace(std::vector<cplx>& data, bool inverse) {
  const std::size_t n = data.size();
  check_arg(is_pow2(n), "fft_pow2_inplace requires a power-of-two size");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

namespace {

// Bluestein's algorithm: expresses an arbitrary-length DFT as a convolution,
// evaluated with zero-padded power-of-two FFTs.
std::vector<cplx> bluestein(const std::vector<cplx>& input, bool inverse) {
  const std::size_t n = input.size();
  const double sign = inverse ? 1.0 : -1.0;

  // Chirp c[k] = exp(sign * i*pi*k^2/n). k^2 mod 2n avoids precision loss
  // for large k.
  std::vector<cplx> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = cplx(std::cos(angle), std::sin(angle));
  }

  const std::size_t m = next_pow2(2 * n - 1);
  std::vector<cplx> a(m, cplx(0, 0));
  std::vector<cplx> b(m, cplx(0, 0));
  for (std::size_t k = 0; k < n; ++k) a[k] = input[k] * chirp[k];
  for (std::size_t k = 0; k < n; ++k) {
    b[k] = std::conj(chirp[k]);
    if (k != 0) b[m - k] = std::conj(chirp[k]);
  }

  fft_pow2_inplace(a, /*inverse=*/false);
  fft_pow2_inplace(b, /*inverse=*/false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  fft_pow2_inplace(a, /*inverse=*/true);

  std::vector<cplx> out(n);
  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * scale * chirp[k];
  return out;
}

}  // namespace

std::vector<cplx> fft(const std::vector<cplx>& input) {
  check_arg(!input.empty(), "fft of empty signal");
  if (is_pow2(input.size())) {
    std::vector<cplx> data = input;
    fft_pow2_inplace(data, /*inverse=*/false);
    return data;
  }
  return bluestein(input, /*inverse=*/false);
}

std::vector<cplx> ifft(const std::vector<cplx>& input) {
  check_arg(!input.empty(), "ifft of empty signal");
  std::vector<cplx> out;
  if (is_pow2(input.size())) {
    out = input;
    fft_pow2_inplace(out, /*inverse=*/true);
  } else {
    out = bluestein(input, /*inverse=*/true);
  }
  const double scale = 1.0 / static_cast<double>(out.size());
  for (auto& v : out) v *= scale;
  return out;
}

std::vector<double> magnitude(const std::vector<cplx>& spectrum) {
  std::vector<double> out(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) out[i] = std::abs(spectrum[i]);
  return out;
}

std::vector<double> power(const std::vector<cplx>& spectrum) {
  std::vector<double> out(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) out[i] = std::norm(spectrum[i]);
  return out;
}

}  // namespace gp::dsp
