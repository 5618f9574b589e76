// Reusable FFT plans.
//
// An FftPlan precomputes everything about a transform size that the naive
// path recomputes on every call: the bit-reversal permutation, per-stage
// twiddle factors, and — for non-power-of-two sizes — the Bluestein chirp
// sequence and the spectrum of its convolution kernel. Plans also provide a
// real-input transform (rfft) that computes an even-N real FFT through an
// N/2-point complex one, roughly halving the work of every
// magnitude/power-spectrum call.
//
// Plans are cached per thread by size (get_plan), so hot loops such as the
// STFT pay the setup cost once per (thread, size) and the cache needs no
// locking. The radix-2 tables depend only on the power-of-two size a plan
// runs, so every plan that runs one size shares one immutable copy, and
// Bluestein plans take their convolution buffer from per-thread scratch:
// a new length costs its chirp and kernel spectrum, not another set of
// tables.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"

namespace vibguard::dsp {

using Complex = std::complex<double>;

/// Immutable radix-2 tables for one power-of-two size (fft_plan.cpp).
struct Pow2Tables;

/// Precomputed transform of one fixed size. A plan's scratch buffers make it
/// safe for repeated use from one thread but not for concurrent calls;
/// get_plan hands each thread its own instance.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place complex DFT of exactly size() points (Bluestein for
  /// non-power-of-two sizes). `inverse` selects the inverse transform
  /// (scaled by 1/N).
  void transform(std::span<Complex> data, bool inverse) const;

  /// Real-input DFT: writes the one-sided spectrum X[0..n/2] (n/2 + 1 bins)
  /// of the size()-point input. Even sizes run through an n/2-point complex
  /// transform; odd sizes fall back to the complex path.
  void rfft(std::span<const double> in, std::span<Complex> out) const;

  /// One-sided magnitude spectrum |X[k]|/n into `out` (n/2 + 1 bins),
  /// matching magnitude_spectrum's normalization.
  void magnitude(std::span<const double> in, std::span<double> out) const;

  /// One-sided power spectrum (|X[k]|/n)^2 into `out` (n/2 + 1 bins) —
  /// the STFT inner loop's quantity, computed without the square root.
  void power(std::span<const double> in, std::span<double> out) const;

  /// Fused STFT frame kernel: power spectrum of in[i] * window[i] without
  /// materializing the windowed frame (in and window both size() long).
  void windowed_power(const double* in, const double* window,
                      std::span<double> out) const;

 private:
  // Nested plans (the rfft half plan, the Bluestein work plan) skip their
  // own real-input setup; only transform() is ever called on them.
  FftPlan(std::size_t n, bool build_real);
  void init(bool build_real);

  /// Radix-2 pass over a power-of-two buffer using the precomputed tables
  /// (size pow2_n_: n_ itself when it is a power of two, else the Bluestein
  /// work size m_).
  void run_pow2(std::span<Complex> data, bool inverse) const;

  /// Transforms the packed even/odd sequence already in rscratch_ and
  /// writes one-sided power-spectrum bins (scaled by norm2) into out.
  /// Even-size real-input fast path shared by power/windowed_power.
  void packed_power(std::span<double> out, double norm2) const;

  std::size_t n_ = 0;
  bool is_pow2_ = false;

  // Power-of-two machinery (for n_ or, when Bluestein, for m_), shared
  // with every other plan of that size. The Complex tables are 64-byte
  // aligned: the SIMD butterfly/split kernels stream them every transform.
  std::size_t pow2_n_ = 0;
  std::shared_ptr<const Pow2Tables> pow2_;

  // Bluestein machinery (non-power-of-two sizes). The length-m_
  // convolution buffer is per-thread scratch.
  std::size_t m_ = 0;                ///< next_pow2(2n - 1) work size
  AlignedVector<Complex> chirp_;     ///< w[k] = exp(-i*pi*k^2/n)
  AlignedVector<Complex> bspec_;     ///< forward FFT of the chirp kernel b

  // Real-input machinery (even n_ only).
  std::unique_ptr<FftPlan> half_;       ///< n_/2-point complex plan
  AlignedVector<Complex> rtwiddle_;     ///< exp(-2*pi*i*k/n), k = 0..n/2
  mutable AlignedVector<Complex> rscratch_;  ///< packed half-length buffer
};

/// Thread-local size-keyed plan cache. The returned reference stays valid
/// for the calling thread's lifetime.
const FftPlan& get_plan(std::size_t n);

}  // namespace vibguard::dsp
