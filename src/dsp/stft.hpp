// Short-time Fourier transform and the Spectrogram container.
//
// The paper's vibration-domain features are power spectrograms computed with
// a 64-point window / 64-point FFT on 200 Hz accelerometer data (Sec. VI-B).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/signal.hpp"
#include "dsp/window.hpp"

namespace vibguard::dsp {

/// Time–frequency magnitude/power grid: frames (rows) × bins (columns).
class Spectrogram {
 public:
  Spectrogram() = default;

  /// `bins` one-sided frequency bins per frame, spaced `bin_hz` apart,
  /// frames `hop_seconds` apart.
  Spectrogram(std::size_t frames, std::size_t bins, double bin_hz,
              double hop_seconds);

  std::size_t frames() const { return frames_; }
  std::size_t bins() const { return bins_; }
  double bin_hz() const { return bin_hz_; }
  double hop_seconds() const { return hop_seconds_; }

  double& at(std::size_t frame, std::size_t bin);
  double at(std::size_t frame, std::size_t bin) const;

  /// Raw pointer to one frame's `bins()` contiguous values — the unchecked
  /// fast path for inner loops (`frame` must be < frames()).
  double* row(std::size_t frame) { return data_.data() + frame * bins_; }
  const double* row(std::size_t frame) const {
    return data_.data() + frame * bins_;
  }

  /// Row-major flat view (frame-major).
  std::span<const double> values() const { return data_; }
  std::span<double> values() { return data_; }

  /// Largest cell value; 0 for an empty spectrogram.
  double max_value() const;

  /// Divides all cells by the maximum value (no-op if max <= 0). This is the
  /// paper's vibration-domain normalization (Sec. VI-C).
  void normalize_by_max();

  /// Returns a copy with bins whose center frequency is <= cutoff_hz
  /// removed. Implements the accelerometer-artifact crop (Sec. VI-B).
  Spectrogram crop_low_frequencies(double cutoff_hz) const;

  /// In-place variant of crop_low_frequencies: compacts the surviving bins
  /// within the existing storage (no allocation).
  void crop_low_frequencies_in_place(double cutoff_hz);

  /// Reconfigures shape and metadata in place, reusing storage capacity.
  /// All cells are reset to zero and bin 0 is re-centered at 0 Hz.
  void reshape(std::size_t frames, std::size_t bins, double bin_hz,
               double hop_seconds);

  /// Truncates/zero-pads along time to exactly `frames` rows.
  Spectrogram resized_frames(std::size_t frames) const;

  /// Mean over frames for each bin (average spectrum).
  std::vector<double> mean_over_time() const;

 private:
  std::size_t frames_ = 0;
  std::size_t bins_ = 0;
  double bin_hz_ = 0.0;
  double hop_seconds_ = 0.0;
  double bin0_hz_ = 0.0;  // center frequency of column 0
  std::vector<double> data_;

  friend Spectrogram stft_power(const Signal&, std::size_t, std::size_t,
                                WindowType);
};

/// Power spectrogram: squared one-sided FFT magnitudes of windowed frames.
/// `window_size` samples per frame, advanced by `hop` samples; FFT length
/// equals window_size (the paper uses window = FFT = 64).
Spectrogram stft_power(const Signal& signal, std::size_t window_size,
                       std::size_t hop,
                       WindowType window = WindowType::kHann);

/// Allocation-free overload: reshapes `out` (reusing its storage) and fills
/// it with the power spectrogram. Uses the thread-local window/plan caches,
/// so repeated calls at steady state perform no heap allocations.
void stft_power_into(const Signal& signal, std::size_t window_size,
                     std::size_t hop, Spectrogram& out,
                     WindowType window = WindowType::kHann);

/// 2-D Pearson correlation of two equal-shaped spectrograms (paper Eq. 6).
/// Shorter inputs are compared over the overlapping frame range; returns 0
/// if the correlation is degenerate (see correlation_2d_ex).
double correlation_2d(const Spectrogram& a, const Spectrogram& b);

/// correlation_2d result with an explicit degeneracy flag. `degenerate` is
/// true when no meaningful correlation exists: the overlap is empty, either
/// operand has zero variance over it, or the inputs contain non-finite
/// values; `value` is 0 in that case. Callers that must distinguish "truly
/// uncorrelated" from "cannot be correlated" (core/detector.hpp) use this
/// instead of the plain wrapper.
struct Correlation2dResult {
  double value = 0.0;
  bool degenerate = false;
};

Correlation2dResult correlation_2d_ex(const Spectrogram& a,
                                      const Spectrogram& b);

}  // namespace vibguard::dsp
