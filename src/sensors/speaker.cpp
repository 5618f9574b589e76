#include "sensors/speaker.hpp"

#include <cmath>

#include "common/error.hpp"
#include "dsp/filter.hpp"

namespace vibguard::sensors {

SpeakerConfig playback_loudspeaker() {
  return SpeakerConfig{/*low_cut_hz=*/80.0, /*high_cut_hz=*/12000.0,
                       /*distortion=*/0.02};
}

SpeakerConfig wearable_speaker() {
  return SpeakerConfig{/*low_cut_hz=*/350.0, /*high_cut_hz=*/8000.0,
                       /*distortion=*/0.05};
}

Speaker::Speaker(SpeakerConfig config) : config_(config) {
  VIBGUARD_REQUIRE(config_.high_cut_hz > config_.low_cut_hz,
                   "high cut must exceed low cut");
  VIBGUARD_REQUIRE(config_.distortion >= 0.0,
                   "distortion must be non-negative");
}

double Speaker::response(double f_hz) const {
  const double g_lo = 1.0 / (1.0 + std::pow(config_.low_cut_hz /
                                                std::max(f_hz, 1e-3),
                                            2.0));
  const double g_hi = 1.0 / (1.0 + std::pow(f_hz / config_.high_cut_hz, 4.0));
  return g_lo * g_hi;
}

Signal Speaker::render(const Signal& in) const {
  Signal out;
  std::vector<std::complex<double>> work;
  render_into(in, out, work);
  return out;
}

void Speaker::render_into(const Signal& in, Signal& out,
                          std::vector<std::complex<double>>& work) const {
  // The response depends on the two cut-offs alone.
  thread_local dsp::GainTableCache responses;
  dsp::apply_gain_curve(
      in,
      responses.get({config_.low_cut_hz, config_.high_cut_hz}, in,
                    [this](double f) { return response(f); }),
      out, work);
  if (config_.distortion > 0.0) {
    // Gentle odd-order nonlinearity (tanh soft clipper) around the signal's
    // own scale, so distortion is level-independent in this normalized
    // domain.
    const double peak = out.peak();
    if (peak > 0.0) {
      const double drive = 1.0 + config_.distortion * 4.0;
      const double full_scale = std::tanh(drive);
      for (double& s : out) {
        s = peak * std::tanh(drive * s / peak) / full_scale;
      }
    }
  }
}

}  // namespace vibguard::sensors
