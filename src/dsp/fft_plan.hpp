// Reusable FFT plans.
//
// An FftPlan precomputes everything about a transform size that the naive
// path recomputes on every call: per-stage twiddle factors, the
// bit-reversal swap pairs of sizes below 4096 points, and — for
// non-power-of-two sizes — the Bluestein chirp sequence and the spectrum of
// its convolution kernel. Plans also provide a real-input transform (rfft)
// that computes an even-N real FFT through an N/2-point complex one,
// roughly halving the work of every magnitude/power-spectrum call.
//
// Every radix-2 transform (and so every Bluestein one) saves memory passes
// without changing a butterfly: from 4096 points up it reverses its index
// bits by exchanging 16x16 tiles through a stack buffer, so each access is
// a run of 16 contiguous points, and it runs the stages up to len = 1024
// on one 1024-point block at a time before the larger stages run over the
// whole buffer. Below 4096 points the swap table is faster (the buffer fits
// in L1). Both thresholds and their measurements are in fft_plan.cpp and in
// README "Performance".
//
// A plan is immutable once built, so get_plan keeps one per size for the
// whole process, in one locked map: every thread that runs a size shares
// its plan. The buffers a transform writes are per-thread scratch, and
// the tile buffer of the bit reversal is on the calling thread's stack.
// The radix-2 tables depend only on the power-of-two size a plan runs, so
// plans that run one size share one copy of them too. A non-power-of-two
// plan builds its Bluestein chirp and kernel on its first transform(), so
// an even size used only for real transforms, which run through its half
// plan, never builds them.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/aligned.hpp"

namespace vibguard::dsp {

using Complex = std::complex<double>;

/// Immutable radix-2 tables for one power-of-two size (fft_plan.cpp).
struct Pow2Tables;

/// Precomputed transform of one fixed size. Every method is safe to call
/// concurrently on one plan: the plan is read-only after construction
/// (its Bluestein tables are built once, under std::call_once) and each
/// call works in the calling thread's scratch.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);
  ~FftPlan();

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
  // The rfft half plan skips its own real-input setup; only transform() is
  // ever called on it.
  FftPlan(std::size_t n, bool build_real);

  /// Bluestein transform of a non-power-of-two size (fft_plan.cpp).
  struct Bluestein;

  /// The Bluestein tables, built on first use.
  const Bluestein& bluestein() const;

  /// Transforms the packed even/odd sequence in `packed` (n_/2 points) and
  /// writes one-sided power-spectrum bins (scaled by norm2) into out.
  /// Even-size real-input fast path shared by power/windowed_power.
  void packed_power(std::span<Complex> packed, std::span<double> out,
                    double norm2) const;

  std::size_t n_ = 0;

  // Radix-2 tables for a power-of-two n_, shared with every other plan of
  // that size. The Complex tables are 64-byte aligned: the SIMD
  // butterfly/split kernels stream them every transform.
  std::shared_ptr<const Pow2Tables> pow2_;

  // Bluestein machinery (non-power-of-two n_), built by the first
  // transform(). Its length-m convolution buffer is per-thread scratch.
  mutable std::once_flag bluestein_once_;
  mutable std::unique_ptr<const Bluestein> bluestein_;

  // Real-input machinery (even n_ only).
  std::unique_ptr<FftPlan> half_;       ///< n_/2-point complex plan
  AlignedVector<Complex> rtwiddle_;     ///< exp(-2*pi*i*k/n), k = 0..n/2
};

/// The process-wide plan for size `n`, built on first use. The reference
/// stays valid for the life of the process.
const FftPlan& get_plan(std::size_t n);

}  // namespace vibguard::dsp
