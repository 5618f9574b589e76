#include "sensors/microphone.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/filter.hpp"
#include "dsp/resample.hpp"

namespace vibguard::sensors {

Microphone::Microphone(MicrophoneConfig config) : config_(config) {
  VIBGUARD_REQUIRE(config_.sample_rate > 0.0, "sample rate must be positive");
  VIBGUARD_REQUIRE(config_.high_cut_hz > config_.low_cut_hz,
                   "high cut must exceed low cut");
}

double Microphone::response(double f_hz) const {
  // Second-order high-pass knee + fourth-order low-pass knee.
  const double lo = config_.low_cut_hz;
  const double hi = config_.high_cut_hz;
  const double g_lo =
      1.0 / (1.0 + std::pow(lo / std::max(f_hz, 1e-3), 2.0));
  const double g_hi = 1.0 / (1.0 + std::pow(f_hz / hi, 4.0));
  return config_.sensitivity * g_lo * g_hi;
}

Signal Microphone::record(const Signal& sound, Rng& rng) const {
  return realize(sound, draw(sound.size(), sound.sample_rate(), rng));
}

Rng Microphone::draw(std::size_t samples, double sample_rate,
                     Rng& rng) const {
  // One noise sample per recorded sample, at the microphone's rate.
  return rng.take_gaussians(
      dsp::resampled_size(samples, sample_rate, config_.sample_rate));
}

Signal Microphone::realize(const Signal& sound, const Rng& self_noise) const {
  Signal in = sound;
  if (in.sample_rate() != config_.sample_rate) {
    in = dsp::resample(in, config_.sample_rate);
  }
  Signal out =
      dsp::apply_gain_curve(in, [this](double f) { return response(f); });
  Rng rng = self_noise;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] += rng.gaussian(0.0, config_.noise_floor_rms);
    out[i] = std::clamp(out[i], -config_.clip_level, config_.clip_level);
  }
  return out;
}

}  // namespace vibguard::sensors
