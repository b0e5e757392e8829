// Fast Fourier Transform.
//
// Power-of-two sizes use an iterative radix-2 Cooley–Tukey; arbitrary sizes
// fall back to Bluestein's chirp-z algorithm (itself built on the radix-2
// kernel), so fft() works for any length >= 1. Normalisation convention:
// fft() is unnormalised, ifft() divides by N — matching NumPy/Matlab so the
// radar chain's magnitudes are directly comparable to reference values.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace gp::dsp {

using cplx = std::complex<double>;

/// In-place radix-2 FFT. Requires size to be a power of two (and >= 1).
void fft_pow2_inplace(std::vector<cplx>& data, bool inverse);

/// Forward DFT of arbitrary length (Bluestein fallback for non-pow2).
std::vector<cplx> fft(const std::vector<cplx>& input);

/// Inverse DFT of arbitrary length; ifft(fft(x)) == x.
std::vector<cplx> ifft(const std::vector<cplx>& input);

/// True iff n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// |X[k]| for each bin.
std::vector<double> magnitude(const std::vector<cplx>& spectrum);

/// |X[k]|^2 for each bin.
std::vector<double> power(const std::vector<cplx>& spectrum);

/// Rotates the spectrum so the zero-frequency bin sits at the centre
/// (index N/2), like numpy.fft.fftshift.
template <typename T>
std::vector<T> fftshift(const std::vector<T>& v) {
  const std::size_t n = v.size();
  std::vector<T> out(n);
  const std::size_t half = (n + 1) / 2;  // first element that moves to front
  for (std::size_t i = 0; i < n; ++i) out[i] = v[(i + half) % n];
  return out;
}

}  // namespace gp::dsp
