// MEMS accelerometer model for cross-domain sensing.
//
// Captures the four physical effects the paper's detector relies on
// (Sec. IV-A, VI-B):
//
//  1. Conductive coupling — airborne/through-case sound below ~500 Hz
//     couples weakly into the proof mass, while content above ~1 kHz couples
//     strongly (the accelerometer "attenuates low-frequency audio signals
//     ... captures the high-frequency audio signals").
//  2. Aliasing — the 200 Hz ADC samples the wideband mechanical excitation
//     with no anti-alias filter, folding >100 Hz content into [0, 100] Hz.
//  3. Low-frequency sensitivity artifact — MEMS accelerometers are designed
//     for body motion and respond strongly at 0–5 Hz (paper Fig. 7); this
//     artifact is cropped downstream by the feature extractor.
//  4. Amplifier noise injection — the readout amplifier injects extra random
//     noise when the excitation is dominated by low-frequency components
//     (paper ref. [9]); this is what makes thru-barrier attack sounds
//     *noisy* in the vibration domain and therefore decorrelated.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/signal.hpp"
#include "dsp/scratch.hpp"

namespace vibguard::sensors {

struct AccelerometerConfig {
  double sample_rate = 200.0;    ///< smartwatch accelerometer rate

  // Effect 1: conductive coupling high-pass knee.
  double coupling_knee_hz = 850.0;
  double coupling_low_gain = 0.05;  ///< residual coupling for f << knee
  double coupling_order = 6.0;      ///< knee steepness

  // Effect 3: 0–5 Hz sensitivity boost.
  double lf_boost_gain = 6.0;
  double lf_boost_corner_hz = 3.0;

  // Effect 4: amplifier noise. Noise stddev is
  //   base_noise_rms + lf_noise_coeff * lf_dominance^2 * sat(excitation_rms)
  // where lf_dominance is the fraction of excitation energy below
  // `lf_dominance_cutoff_hz` and sat(r) = S*r/(S+r) saturates at
  // S = lf_noise_saturation_rms (the readout circuit's noise injection
  // cannot grow without bound with drive level). The quadratic dominance
  // dependence reflects that noise injection is negligible for broadband
  // excitation and dominant for low-frequency-only excitation [9].
  double base_noise_rms = 0.0007;
  double lf_noise_coeff = 1.00;
  double lf_noise_saturation_rms = 0.035;
  double lf_dominance_cutoff_hz = 500.0;

  // Body-motion interference (0.3–3.5 Hz) while the wearable is worn.
  double body_motion_rms = 0.01;

  // Ablation switch: when true, an anti-alias filter precedes sampling, so
  // no high-frequency content folds into the 0–100 Hz band. Real MEMS
  // accelerometers do NOT have this filter — aliasing is the signal path
  // cross-domain sensing exploits — so this exists only to quantify the
  // contribution of aliasing (DESIGN.md ablation #5).
  bool anti_alias = false;
};

/// Everything one capture draws from its generator, in draw order
/// (DESIGN.md §5j): the amplifier noise, reserved as a generator positioned
/// at it, then the body motion.
struct CaptureDraw {
  Rng noise;  ///< its first gaussian() calls are the per-sample noise
  /// The built-in body-motion stand-in (config body_motion_rms > 0, and no
  /// explicit motion): its frequency and phase.
  bool stand_in = false;
  double motion_hz = 0.0;
  double motion_phase = 0.0;
  /// Explicit motion at the accelerometer rate, added in place of the
  /// stand-in (draw_with_motion, as for the wearer's activity).
  Signal motion;
};

/// Converts audio played at the wearable into a 200 Hz vibration signal.
class Accelerometer {
 public:
  explicit Accelerometer(AccelerometerConfig config = {});

  const AccelerometerConfig& config() const { return config_; }

  /// Captures the vibration caused by `audio` (any sample rate >= 400 Hz).
  /// The returned signal is sampled at config().sample_rate.
  Signal capture(const Signal& audio, Rng& rng) const;

  /// Allocation-free overload of capture(): writes the vibration signal
  /// into `out` and routes every temporary through `scratch`, all reusing
  /// existing capacity. Draws from `rng` in the same order as capture(), so
  /// results are bit-identical.
  void capture_into(const Signal& audio, Rng& rng, Signal& out,
                    dsp::Scratch& scratch) const;

  /// The random half of capture() for audio of `samples` samples at
  /// `sample_rate`: checks the rate and draws what the capture consumes.
  /// Empty audio draws nothing.
  CaptureDraw draw(std::size_t samples, double sample_rate, Rng& rng) const;

  /// Like draw(), but with an explicit body-motion interference signal
  /// (already at the accelerometer rate, e.g. from sensors::body_motion)
  /// that realize() superimposes instead of the config's built-in
  /// sinusoidal stand-in, so only the noise is drawn.
  CaptureDraw draw_with_motion(std::size_t samples, double sample_rate,
                               Signal motion, Rng& rng) const;

  /// The pure half: capture_into(audio, rng, out, scratch) ==
  /// realize(audio, draw(audio.size(), audio.sample_rate(), rng), out,
  /// scratch), bit for bit. It
  /// touches no Rng but a copy of the draw's, and shares only thread-local
  /// caches and immutable FFT plans, so captures with their own `out` and
  /// `scratch` can be realized at once.
  void realize(const Signal& audio, const CaptureDraw& draw, Signal& out,
               dsp::Scratch& scratch) const;

  /// Coupling gain (effect 1) at audio frequency `f_hz`.
  double coupling_gain(double f_hz) const;

  /// Post-sampling sensitivity (effect 3) at vibration frequency `f_hz`.
  double sensitivity_gain(double f_hz) const;

  /// Fraction of `audio` energy below the low-frequency dominance cutoff —
  /// the quantity that drives amplifier-noise injection (effect 4).
  double lf_dominance(const Signal& audio) const;

 private:
  AccelerometerConfig config_;
};

}  // namespace vibguard::sensors
