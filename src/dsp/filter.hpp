// Digital filters: windowed-sinc FIR design and FFT-based zero-phase
// filtering with arbitrary frequency-gain curves.
//
// The gain-curve filter is the workhorse of the physical simulation: barrier
// transmission, loudspeaker/microphone responses, and accelerometer coupling
// are all specified as |H(f)| curves and applied in the frequency domain.
#pragma once

#include <complex>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/signal.hpp"

namespace vibguard::dsp {

/// Windowed-sinc low-pass FIR taps (Hamming window, odd length).
std::vector<double> design_fir_lowpass(double cutoff_hz, double sample_rate,
                                       std::size_t num_taps);

/// Linear convolution of `x` with `taps`, truncated to |x| outputs with
/// group-delay compensation (output aligned with input).
std::vector<double> fir_filter(std::span<const double> x,
                               std::span<const double> taps);

/// Zero-phase filter applying an arbitrary magnitude gain curve.
/// `gain(f_hz)` is sampled on the FFT grid; the signal is transformed,
/// scaled bin-by-bin (conjugate-symmetrically) and inverse-transformed.
Signal apply_gain_curve(const Signal& in,
                        const std::function<double(double)>& gain);

/// Allocation-free overload: writes the filtered signal into `out` and uses
/// `work` as the FFT buffer, both reusing existing capacity. `out` may alias
/// `in` (in-place filtering); `work` must not be read afterwards.
void apply_gain_curve(const Signal& in,
                      const std::function<double(double)>& gain, Signal& out,
                      std::vector<std::complex<double>>& work);

/// Table-driven overload: `table` is the curve already sampled on `in`'s
/// grid (next_pow2(in.size()) / 2 + 1 gains, as GainTableCache::get returns
/// them). It runs the same transform-scale-inverse pass as the overload
/// above, so a table of the same curve gives bit-identical output.
void apply_gain_curve(const Signal& in, std::span<const double> table,
                      Signal& out, std::vector<std::complex<double>>& work);

/// Per-thread cache of gain curves sampled on apply_gain_curve's FFT grid,
/// the gain-curve counterpart of get_plan. One instance holds one curve
/// family: entries are keyed by the family's parameters and the grid (FFT
/// size and sample rate). Declare it `thread_local` beside the curve; an
/// instance is not thread-safe.
class GainTableCache {
 public:
  /// The table of the curve named by `params` on `in`'s grid, sampling
  /// `gain` only on the first request for that key; `params` must determine
  /// `gain`. The span stays valid until the next get() on this cache.
  std::span<const double> get(std::initializer_list<double> params,
                              const Signal& in,
                              const std::function<double(double)>& gain);

 private:
  struct Entry {
    std::vector<double> params;
    std::size_t fft_size = 0;
    double sample_rate = 0.0;
    std::vector<double> table;
  };
  std::vector<Entry> entries_;  ///< oldest first
};

}  // namespace vibguard::dsp
