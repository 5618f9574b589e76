// Microphone model: band-limited response, self-noise, clipping.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/signal.hpp"

namespace vibguard::sensors {

struct MicrophoneConfig {
  double sample_rate = 16000.0;  ///< paper records at 16 kHz
  double low_cut_hz = 50.0;      ///< electret low-frequency roll-off
  double high_cut_hz = 7800.0;   ///< anti-alias band edge
  double noise_floor_rms = 2e-3; ///< self-noise (≈37 dB SPL equivalent)
  double clip_level = 4.0;       ///< hard clipping ceiling
  double sensitivity = 1.0;      ///< overall gain
};

/// Converts an acoustic pressure signal into a digital recording.
class Microphone {
 public:
  explicit Microphone(MicrophoneConfig config = {});

  const MicrophoneConfig& config() const { return config_; }

  /// Records `sound` (resampling to the microphone rate if needed), applying
  /// the frequency response, self-noise and clipping.
  Signal record(const Signal& sound, Rng& rng) const;

  /// The random half of record() for a sound of `samples` samples at
  /// `sample_rate`: reserves the recording's self-noise and returns it.
  Rng draw(std::size_t samples, double sample_rate, Rng& rng) const;

  /// The pure half: record() == realize(sound, draw(...)), bit for bit.
  Signal realize(const Signal& sound, const Rng& self_noise) const;

  /// Amplitude response at frequency `f_hz`.
  double response(double f_hz) const;

 private:
  MicrophoneConfig config_;
};

}  // namespace vibguard::sensors
