// Elementary test-signal generators: tones, linear chirps and noise.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/signal.hpp"

namespace vibguard::dsp {

/// Sine tone of `frequency_hz` at unit amplitude.
Signal tone(double frequency_hz, double duration_s, double sample_rate,
            double amplitude = 1.0, double phase = 0.0);

/// Linear chirp sweeping f0 -> f1 over the duration (paper Fig. 7 uses a
/// 500–2500 Hz chirp to characterize the accelerometer).
Signal chirp(double f0_hz, double f1_hz, double duration_s,
             double sample_rate, double amplitude = 1.0);

/// White Gaussian noise with the given standard deviation.
Signal white_noise(double duration_s, double sample_rate, double stddev,
                   Rng& rng);

/// Rows of pink_noise's Voss–McCartney generator. It draws one standard
/// normal per row, then one per sample.
inline constexpr std::size_t kPinkNoiseRows = 16;

/// Pink-ish noise (-3 dB/octave) via the Voss–McCartney row algorithm.
Signal pink_noise(double duration_s, double sample_rate, double stddev,
                  Rng& rng);

}  // namespace vibguard::dsp
