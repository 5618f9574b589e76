#include "core/vibration_features.hpp"

#include "common/error.hpp"
#include <algorithm>
#include <cmath>

#include "dsp/filter.hpp"

namespace vibguard::core {

VibrationFeatureExtractor::VibrationFeatureExtractor(
    VibrationFeatureConfig config)
    : config_(config) {
  VIBGUARD_REQUIRE(config_.window_size > 0 && config_.hop > 0,
                   "window and hop must be positive");
}

dsp::Spectrogram VibrationFeatureExtractor::extract(
    const Signal& vibration) const {
  dsp::Spectrogram out;
  dsp::Scratch scratch;
  extract_into(vibration, out, scratch);
  return out;
}

void VibrationFeatureExtractor::extract_into(const Signal& vibration,
                                             dsp::Spectrogram& out,
                                             dsp::Scratch& scratch) const {
  const Signal* input = &vibration;
  if (config_.highpass_hz > 0.0 && !vibration.empty()) {
    // Zero-phase FFT-domain high-pass: body motion (e.g. walking at 2 Hz)
    // can be 10-50x stronger than the acoustic vibration, and an IIR this
    // steep at 0.02*fs rings for hundreds of milliseconds; the frequency-
    // domain filter removes the interference without a transient.
    const double hp = config_.highpass_hz;
    dsp::apply_gain_curve(
        vibration,
        [hp](double f) {
          return 1.0 / (1.0 + std::pow(hp / std::max(f, 1e-6), 12.0));
        },
        scratch.filtered, scratch.cwork);
    input = &scratch.filtered;
  }
  dsp::stft_power_into(*input, config_.window_size, config_.hop, out,
                       config_.window);
  if (config_.crop_below_hz > 0.0) {
    out.crop_low_frequencies_in_place(config_.crop_below_hz);
  }
  if (config_.normalize) out.normalize_by_max();
}

}  // namespace vibguard::core
