// Vibration-domain feature extraction (paper Sec. VI-B).
//
// The 200 Hz accelerometer signal is high-pass filtered against body-motion
// interference, transformed with a 64-point STFT (window == FFT == 64,
// paper's empirical choice), squared to power, cropped below 5 Hz to remove
// the accelerometer's low-frequency sensitivity artifact, and normalized by
// its maximum so features are invariant to user–VA distance.
#pragma once

#include "common/signal.hpp"
#include "dsp/scratch.hpp"
#include "dsp/stft.hpp"

namespace vibguard::core {

struct VibrationFeatureConfig {
  std::size_t window_size = 64;   ///< STFT window and FFT length
  std::size_t hop = 16;           ///< frame shift in samples
  double highpass_hz = 4.0;       ///< body-motion pre-filter cutoff
  double crop_below_hz = 5.0;     ///< accelerometer-artifact crop
  bool normalize = true;          ///< divide by the maximum value
  dsp::WindowType window = dsp::WindowType::kHann;
};

/// Extracts the paper's vibration-domain features from a 200 Hz
/// accelerometer capture.
class VibrationFeatureExtractor {
 public:
  explicit VibrationFeatureExtractor(VibrationFeatureConfig config = {});

  const VibrationFeatureConfig& config() const { return config_; }

  dsp::Spectrogram extract(const Signal& vibration) const;

  /// Allocation-free overload: writes the feature spectrogram into `out`
  /// and routes the high-pass temporary through `scratch`, reusing
  /// capacity. Bit-identical to extract().
  void extract_into(const Signal& vibration, dsp::Spectrogram& out,
                    dsp::Scratch& scratch) const;

 private:
  VibrationFeatureConfig config_;
};

}  // namespace vibguard::core
