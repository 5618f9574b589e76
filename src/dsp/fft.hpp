// Fast Fourier transforms.
//
// Provides an in-place iterative radix-2 Cooley–Tukey FFT for power-of-two
// lengths and a Bluestein chirp-z fallback for arbitrary lengths, so callers
// never need to pad. Real-signal helpers return one-sided magnitude spectra,
// the representation used throughout the paper's figures.
//
// All entry points run on cached per-size plans (see fft_plan.hpp): the
// per-stage twiddles, the bit-reversal table of small sizes and the
// Bluestein chirp spectra are computed once per size for the whole process,
// and shared by every thread, instead of on every call.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace vibguard::dsp {

using Complex = std::complex<double>;

/// In-place FFT of a power-of-two-length buffer.
/// `inverse` selects the inverse transform (scaled by 1/N).
void fft_pow2(std::span<Complex> data, bool inverse);

/// FFT of arbitrary length (Bluestein for non-power-of-two sizes).
std::vector<Complex> fft(std::span<const Complex> data, bool inverse = false);

/// FFT of a real signal; returns the full complex spectrum of length n.
std::vector<Complex> fft_real(std::span<const double> data);

/// Real-input FFT: the one-sided spectrum X[0..n/2] (n/2 + 1 bins) of a
/// real signal, computed through an n/2-point complex transform for even n.
std::vector<Complex> rfft(std::span<const double> data);

/// One-sided magnitude spectrum of a real signal: |X[k]| for
/// k = 0..floor(n/2), normalized by n so magnitudes are amplitude-like.
std::vector<double> magnitude_spectrum(std::span<const double> data);

/// In-place overload: fills `out` (which must hold n/2 + 1 values) without
/// allocating — the STFT/MFCC frame-loop workhorse.
void magnitude_spectrum(std::span<const double> data, std::span<double> out);

/// Frequency in Hz of one-sided bin k for an n-point transform at
/// `sample_rate` Hz.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

}  // namespace vibguard::dsp
