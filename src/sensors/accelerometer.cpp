#include "sensors/accelerometer.hpp"

#include <cmath>
#include <numbers>
#include <utility>

#include "common/error.hpp"
#include "dsp/filter.hpp"
#include "dsp/resample.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::sensors {

Accelerometer::Accelerometer(AccelerometerConfig config) : config_(config) {
  VIBGUARD_REQUIRE(config_.sample_rate > 0.0, "sample rate must be positive");
  VIBGUARD_REQUIRE(config_.coupling_low_gain > 0.0 &&
                       config_.coupling_low_gain <= 1.0,
                   "coupling low gain must be in (0, 1]");
}

double Accelerometer::coupling_gain(double f_hz) const {
  // Smooth high-pass knee: coupling_low_gain below the knee rising to 1
  // above it.
  const double ratio = std::max(f_hz, 1e-3) / config_.coupling_knee_hz;
  const double hp =
      1.0 / (1.0 + std::pow(1.0 / ratio, config_.coupling_order));
  return config_.coupling_low_gain +
         (1.0 - config_.coupling_low_gain) * hp;
}

double Accelerometer::sensitivity_gain(double f_hz) const {
  // Strong DC–5 Hz response decaying exponentially (paper Fig. 7).
  return 1.0 +
         config_.lf_boost_gain * std::exp(-f_hz / config_.lf_boost_corner_hz);
}

double Accelerometer::lf_dominance(const Signal& audio) const {
  return dsp::band_energy_fraction(audio, 0.0,
                                   config_.lf_dominance_cutoff_hz);
}

Signal Accelerometer::capture(const Signal& audio, Rng& rng) const {
  Signal out;
  dsp::Scratch scratch;
  capture_into(audio, rng, out, scratch);
  return out;
}

void Accelerometer::capture_into(const Signal& audio, Rng& rng, Signal& out,
                                 dsp::Scratch& scratch) const {
  realize(audio, draw(audio.size(), audio.sample_rate(), rng), out, scratch);
}

CaptureDraw Accelerometer::draw(std::size_t samples, double sample_rate,
                                Rng& rng) const {
  VIBGUARD_REQUIRE(sample_rate >= 2.0 * config_.sample_rate,
                   "audio rate must be at least twice the accelerometer rate");
  CaptureDraw d;
  if (samples == 0) return d;
  // Effect 4's noise: one normal per output sample.
  d.noise = rng.take_gaussians(
      dsp::resampled_size(samples, sample_rate, config_.sample_rate));
  // Body motion: slow oscillation within 0.3–3.5 Hz.
  if (config_.body_motion_rms > 0.0) {
    d.stand_in = true;
    d.motion_hz = rng.uniform(0.3, 3.5);
    d.motion_phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
  }
  return d;
}

CaptureDraw Accelerometer::draw_with_motion(std::size_t samples,
                                            double sample_rate, Signal motion,
                                            Rng& rng) const {
  VIBGUARD_REQUIRE(motion.empty() ||
                       motion.sample_rate() == config_.sample_rate,
                   "motion signal must be at the accelerometer rate");
  AccelerometerConfig quiet = config_;
  quiet.body_motion_rms = 0.0;  // replace the stand-in with real motion
  CaptureDraw d = Accelerometer(quiet).draw(samples, sample_rate, rng);
  d.motion = std::move(motion);
  return d;
}

void Accelerometer::realize(const Signal& audio, const CaptureDraw& draw,
                            Signal& out, dsp::Scratch& scratch) const {
  if (audio.empty()) {
    out.reset(config_.sample_rate);
    return;
  }

  // Effect 4's driver: measured before any filtering, on the excitation as
  // the amplifier sees it.
  const double dominance = dsp::band_energy_fraction(
      audio, 0.0, config_.lf_dominance_cutoff_hz, scratch.mag);
  const double excitation_rms = audio.rms();

  // Effect 1: conductive coupling.
  thread_local dsp::GainTableCache couplings;
  dsp::apply_gain_curve(
      audio,
      couplings.get({config_.coupling_knee_hz, config_.coupling_low_gain,
                     config_.coupling_order},
                    audio, [this](double f) { return coupling_gain(f); }),
      scratch.coupled, scratch.cwork);

  // Effect 2: naive 200 Hz sampling — deliberately NO anti-alias filter
  // (unless the ablation switch is set).
  if (config_.anti_alias) {
    out = dsp::resample(scratch.coupled, config_.sample_rate);
  } else {
    dsp::decimate_alias_into(scratch.coupled, config_.sample_rate, out);
  }

  // Effect 3: low-frequency sensitivity artifact (applied in place).
  thread_local dsp::GainTableCache sensitivities;
  dsp::apply_gain_curve(
      out,
      sensitivities.get({config_.lf_boost_gain, config_.lf_boost_corner_hz},
                        out,
                        [this](double f) { return sensitivity_gain(f); }),
      out, scratch.cwork);

  // Effect 4: amplifier noise grows with low-frequency dominance.
  const double sat = config_.lf_noise_saturation_rms;
  const double effective_rms =
      sat > 0.0 ? sat * excitation_rms / (sat + excitation_rms)
                : excitation_rms;
  const double noise_rms =
      config_.base_noise_rms +
      config_.lf_noise_coeff * dominance * dominance * effective_rms;
  Rng noise = draw.noise;
  for (double& s : out) s += noise.gaussian(0.0, noise_rms);

  // Body motion: the stand-in's slow oscillation, or the explicit motion.
  if (draw.stand_in) {
    const double amp = config_.body_motion_rms * std::numbers::sqrt2;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double t = static_cast<double>(i) / config_.sample_rate;
      out[i] += amp * std::sin(2.0 * std::numbers::pi * draw.motion_hz * t +
                               draw.motion_phase);
    }
  }
  for (std::size_t i = 0; i < out.size() && i < draw.motion.size(); ++i) {
    out[i] += draw.motion[i];
  }
}

}  // namespace vibguard::sensors
