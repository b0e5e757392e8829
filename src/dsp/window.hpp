// Window functions applied before the range/Doppler FFTs to control
// spectral leakage (the TI mmWave SDK applies a Hann window by default).
#pragma once

#include <cstddef>
#include <vector>

namespace gp::dsp {

enum class WindowKind { kRect, kHann, kHamming, kBlackman };

/// Window coefficients of length n (periodic form, suited for FFT use).
std::vector<double> make_window(WindowKind kind, std::size_t n);

/// Coherent gain: mean of the window (used to renormalise magnitudes).
double coherent_gain(const std::vector<double>& window);

}  // namespace gp::dsp
