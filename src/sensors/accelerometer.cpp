#include "sensors/accelerometer.hpp"

#include <cmath>
#include <numbers>

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

Signal Accelerometer::capture_with_motion(const Signal& audio,
                                          const Signal& motion,
                                          Rng& rng) const {
  Signal out;
  dsp::Scratch scratch;
  capture_with_motion_into(audio, motion, rng, out, scratch);
  return out;
}

void Accelerometer::capture_with_motion_into(const Signal& audio,
                                             const Signal& motion, Rng& rng,
                                             Signal& out,
                                             dsp::Scratch& scratch) const {
  VIBGUARD_REQUIRE(motion.empty() ||
                       motion.sample_rate() == config_.sample_rate,
                   "motion signal must be at the accelerometer rate");
  AccelerometerConfig quiet = config_;
  quiet.body_motion_rms = 0.0;  // replace the stand-in with real motion
  Accelerometer(quiet).capture_into(audio, rng, out, scratch);
  for (std::size_t i = 0; i < out.size() && i < motion.size(); ++i) {
    out[i] += motion[i];
  }
}

Signal Accelerometer::capture(const Signal& audio, Rng& rng) const {
  Signal out;
  dsp::Scratch scratch;
  capture_into(audio, rng, out, scratch);
  return out;
}

void Accelerometer::capture_into(const Signal& audio, Rng& rng, Signal& out,
                                 dsp::Scratch& scratch) const {
  VIBGUARD_REQUIRE(audio.sample_rate() >= 2.0 * config_.sample_rate,
                   "audio rate must be at least twice the accelerometer rate");
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
  for (double& s : out) s += rng.gaussian(0.0, noise_rms);

  // Body motion: slow oscillation within 0.3–3.5 Hz plus drift.
  if (config_.body_motion_rms > 0.0) {
    const double f_motion = rng.uniform(0.3, 3.5);
    const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double amp = config_.body_motion_rms * std::numbers::sqrt2;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double t = static_cast<double>(i) / config_.sample_rate;
      out[i] += amp * std::sin(2.0 * std::numbers::pi * f_motion * t + phase);
    }
  }
}

}  // namespace vibguard::sensors
