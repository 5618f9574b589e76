#include "dsp/stft.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {

Spectrogram::Spectrogram(std::size_t frames, std::size_t bins, double bin_hz,
                         double hop_seconds)
    : frames_(frames),
      bins_(bins),
      bin_hz_(bin_hz),
      hop_seconds_(hop_seconds),
      data_(frames * bins, 0.0) {}

double& Spectrogram::at(std::size_t frame, std::size_t bin) {
  VIBGUARD_REQUIRE(frame < frames_ && bin < bins_,
                   "spectrogram index out of range");
  return data_[frame * bins_ + bin];
}

double Spectrogram::at(std::size_t frame, std::size_t bin) const {
  VIBGUARD_REQUIRE(frame < frames_ && bin < bins_,
                   "spectrogram index out of range");
  return data_[frame * bins_ + bin];
}

double Spectrogram::max_value() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, v);
  return best;
}

void Spectrogram::normalize_by_max() {
  const double m = max_value();
  if (m <= 0.0) return;
  for (double& v : data_) v /= m;
}

Spectrogram Spectrogram::crop_low_frequencies(double cutoff_hz) const {
  // Count bins at or below the cutoff, starting from bin0.
  std::size_t drop = 0;
  while (drop < bins_ &&
         bin0_hz_ + static_cast<double>(drop) * bin_hz_ <= cutoff_hz) {
    ++drop;
  }
  Spectrogram out(frames_, bins_ - drop, bin_hz_, hop_seconds_);
  out.bin0_hz_ = bin0_hz_ + static_cast<double>(drop) * bin_hz_;
  // Each cropped frame is a contiguous run of the source frame.
  for (std::size_t f = 0; f < frames_; ++f) {
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(f * bins_ + drop),
                out.bins_,
                out.data_.begin() + static_cast<std::ptrdiff_t>(f * out.bins_));
  }
  return out;
}

void Spectrogram::crop_low_frequencies_in_place(double cutoff_hz) {
  std::size_t drop = 0;
  while (drop < bins_ &&
         bin0_hz_ + static_cast<double>(drop) * bin_hz_ <= cutoff_hz) {
    ++drop;
  }
  if (drop == 0) return;
  const std::size_t new_bins = bins_ - drop;
  // Each destination run starts strictly before its source run, so a
  // forward copy compacts safely.
  for (std::size_t f = 0; f < frames_; ++f) {
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(f * bins_ + drop),
                new_bins,
                data_.begin() + static_cast<std::ptrdiff_t>(f * new_bins));
  }
  bin0_hz_ += static_cast<double>(drop) * bin_hz_;
  bins_ = new_bins;
  data_.resize(frames_ * bins_);
}

void Spectrogram::reshape(std::size_t frames, std::size_t bins, double bin_hz,
                          double hop_seconds) {
  frames_ = frames;
  bins_ = bins;
  bin_hz_ = bin_hz;
  hop_seconds_ = hop_seconds;
  bin0_hz_ = 0.0;
  data_.assign(frames * bins, 0.0);
}

Spectrogram Spectrogram::resized_frames(std::size_t frames) const {
  Spectrogram out(frames, bins_, bin_hz_, hop_seconds_);
  out.bin0_hz_ = bin0_hz_;
  const std::size_t copy = std::min(frames, frames_);
  std::copy_n(data_.begin(), copy * bins_, out.data_.begin());
  return out;
}

std::vector<double> Spectrogram::mean_over_time() const {
  std::vector<double> avg(bins_, 0.0);
  if (frames_ == 0) return avg;
  for (std::size_t f = 0; f < frames_; ++f) {
    for (std::size_t b = 0; b < bins_; ++b) {
      avg[b] += data_[f * bins_ + b];
    }
  }
  for (double& v : avg) v /= static_cast<double>(frames_);
  return avg;
}

Spectrogram stft_power(const Signal& signal, std::size_t window_size,
                       std::size_t hop, WindowType window) {
  Spectrogram out;
  stft_power_into(signal, window_size, hop, out, window);
  return out;
}

void stft_power_into(const Signal& signal, std::size_t window_size,
                     std::size_t hop, Spectrogram& out, WindowType window) {
  VIBGUARD_REQUIRE(window_size > 0, "window size must be positive");
  VIBGUARD_REQUIRE(hop > 0, "hop must be positive");
  const double* samples = signal.samples().data();
  std::size_t n = signal.size();
  const double rate = signal.sample_rate();
  if (n != 0 && n < window_size) {
    // Guarantee at least one frame for short inputs (e.g. brief commands at
    // the 200 Hz accelerometer rate). The pad buffer is thread-local so the
    // steady state stays allocation-free.
    thread_local std::vector<double> padded;
    padded.assign(window_size, 0.0);
    std::copy_n(samples, n, padded.begin());
    samples = padded.data();
    n = window_size;
  }
  const std::size_t frames =
      n >= window_size ? 1 + (n - window_size) / hop : 0;
  const std::size_t bins = window_size / 2 + 1;
  out.reshape(frames, bins, rate / static_cast<double>(window_size),
              static_cast<double>(hop) / rate);

  // One plan and one window for the whole signal; each frame's windowing,
  // transform and squaring run fused, writing straight through the
  // unchecked row pointer.
  const auto& win = cached_window(window, window_size);
  const FftPlan& plan = get_plan(window_size);
  for (std::size_t f = 0; f < frames; ++f) {
    plan.windowed_power(samples + f * hop, win.data(),
                        std::span<double>(out.row(f), bins));
  }
}

double correlation_2d(const Spectrogram& a, const Spectrogram& b) {
  return correlation_2d_ex(a, b).value;
}

Correlation2dResult correlation_2d_ex(const Spectrogram& a,
                                      const Spectrogram& b) {
  VIBGUARD_REQUIRE(a.bins() == b.bins(),
                   "2-D correlation requires matching bin counts");
  const std::size_t frames = std::min(a.frames(), b.frames());
  if (frames == 0 || a.bins() == 0) return {0.0, true};
  const std::size_t n = frames * a.bins();
  // Single fused accumulation of all five moments (instead of separate
  // mean passes followed by a centered pass), through the dispatched
  // SIMD kernel.
  const simd::PearsonMoments m =
      simd::pearson_moments(a.values().data(), b.values().data(), n);
  const double inv_n = 1.0 / static_cast<double>(n);
  const double cov = m.sab - m.sa * m.sb * inv_n;
  const double var_a = m.saa - m.sa * m.sa * inv_n;
  const double var_b = m.sbb - m.sb * m.sb * inv_n;
  // NaN anywhere in the inputs poisons the moments; the comparisons below
  // are written so a NaN variance lands in the degenerate branch instead of
  // propagating into the score. The variance threshold is relative to the
  // raw second moment rather than exactly zero: the fused difference
  // saa - sa^2/n cancels catastrophically on (near-)constant input, and
  // vectorized accumulation orders leave rounding residue ~ulp(saa) where
  // the sequential order happens to cancel exactly. Input whose variance is
  // below 1e-12 of its energy is constant to within float precision, so it
  // is degenerate regardless of which dispatch level summed it.
  constexpr double kVarEps = 1e-12;
  if (!(var_a > kVarEps * m.saa) || !(var_b > kVarEps * m.sbb) ||
      !std::isfinite(cov)) {
    return {0.0, true};
  }
  const double r = cov / std::sqrt(var_a * var_b);
  if (!std::isfinite(r)) return {0.0, true};
  return {r, false};
}

}  // namespace vibguard::dsp
