#include "sensors/accelerometer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"
#include "dsp/resample.hpp"
#include "dsp/spectral.hpp"
#include "sensors/body_motion.hpp"

namespace vibguard::sensors {
namespace {

AccelerometerConfig quiet_config() {
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  cfg.base_noise_rms = 0.0;
  cfg.lf_noise_coeff = 0.0;
  return cfg;
}

// capture_into's definition as one inline pass over the generator: both
// gain curves evaluated through std::function for every bin, then the
// amplifier noise, then the body motion — the stand-in's frequency and
// phase, or `motion` in its place.
Signal reference_capture(const Accelerometer& acc, const Signal& audio,
                         Rng& rng, const Signal* motion = nullptr) {
  const AccelerometerConfig& cfg = acc.config();
  if (audio.empty()) return Signal({}, cfg.sample_rate);
  const double dominance = acc.lf_dominance(audio);
  const double excitation_rms = audio.rms();
  const Signal coupled = dsp::apply_gain_curve(
      audio, [&acc](double f) { return acc.coupling_gain(f); });
  Signal out = dsp::apply_gain_curve(
      dsp::decimate_alias(coupled, cfg.sample_rate),
      [&acc](double f) { return acc.sensitivity_gain(f); });
  const double sat = cfg.lf_noise_saturation_rms;
  const double effective_rms = sat * excitation_rms / (sat + excitation_rms);
  const double noise_rms = cfg.base_noise_rms + cfg.lf_noise_coeff *
                                                    dominance * dominance *
                                                    effective_rms;
  for (double& s : out) s += rng.gaussian(0.0, noise_rms);
  if (motion != nullptr) {
    for (std::size_t i = 0; i < out.size() && i < motion->size(); ++i) {
      out[i] += (*motion)[i];
    }
  } else if (cfg.body_motion_rms > 0.0) {
    const double f_motion = rng.uniform(0.3, 3.5);
    const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double amp = cfg.body_motion_rms * std::numbers::sqrt2;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double t = static_cast<double>(i) / cfg.sample_rate;
      out[i] += amp * std::sin(2.0 * std::numbers::pi * f_motion * t + phase);
    }
  }
  return out;
}

TEST(AccelerometerTest, GainTableCaptureMatchesCurveBitForBit) {
  // Two audio FFT grids (4096 and 16384 points) and two coupling and
  // sensitivity curves alternating on one thread, twice: the tables must
  // be keyed on the curve parameters as well as the grid.
  AccelerometerConfig stock;
  stock.body_motion_rms = 0.0;
  AccelerometerConfig stiff = stock;
  stiff.coupling_knee_hz = 1200.0;
  stiff.coupling_order = 4.0;
  stiff.lf_boost_corner_hz = 2.0;
  Rng noise(12);
  const Signal short_in = dsp::pink_noise(0.2, 16000.0, 0.05, noise);
  const Signal long_in = dsp::pink_noise(0.9, 16000.0, 0.05, noise);
  dsp::Scratch scratch;
  Signal out;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Signal* in : {&short_in, &long_in}) {
      for (const AccelerometerConfig* cfg : {&stock, &stiff}) {
        const Accelerometer acc(*cfg);
        Rng r1(13), r2(13);
        acc.capture_into(*in, r1, out, scratch);
        const Signal want = reference_capture(acc, *in, r2);
        ASSERT_EQ(out.size(), want.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << "sample " << i;
        }
      }
    }
  }
}

TEST(AccelerometerTest, OutputAtAccelRate) {
  Accelerometer acc;
  Rng rng(1);
  const Signal audio = dsp::tone(1000.0, 1.0, 16000.0, 0.05);
  const Signal vib = acc.capture(audio, rng);
  EXPECT_DOUBLE_EQ(vib.sample_rate(), 200.0);
  EXPECT_NEAR(static_cast<double>(vib.size()), 200.0, 2.0);
}

TEST(AccelerometerTest, CouplingAttenuatesLowPassesHigh) {
  Accelerometer acc;
  EXPECT_LT(acc.coupling_gain(100.0), 0.1);
  EXPECT_LT(acc.coupling_gain(300.0), 0.2);
  EXPECT_GT(acc.coupling_gain(2000.0), 0.8);
}

TEST(AccelerometerTest, HighFrequencyToneAliasesIntoBand) {
  // Effect 2: a 1030 Hz tone at 200 Hz sampling aliases to |1030-5*200|=30.
  Accelerometer acc(quiet_config());
  Rng rng(2);
  const Signal audio = dsp::tone(1030.0, 2.0, 16000.0, 0.05);
  const Signal vib = acc.capture(audio, rng);
  const auto mag = dsp::magnitude_spectrum(vib.samples());
  std::size_t best = 3;  // skip DC/LF-boost region
  for (std::size_t k = 4; k < mag.size(); ++k) {
    if (mag[k] > mag[best]) best = k;
  }
  const double f = dsp::bin_frequency(best, vib.size(), 200.0);
  EXPECT_NEAR(f, 30.0, 2.0);
}

TEST(AccelerometerTest, LowFrequencyBoostBelow5Hz) {
  Accelerometer acc;
  EXPECT_GT(acc.sensitivity_gain(1.0), 4.0);
  EXPECT_NEAR(acc.sensitivity_gain(50.0), 1.0, 0.01);
}

TEST(AccelerometerTest, ChirpResponseShowsLfArtifact) {
  // Paper Fig. 7: a 500-2500 Hz chirp produces strong 0-5 Hz response.
  Accelerometer acc;
  Rng rng(3);
  const Signal chirp_sig = dsp::chirp(500.0, 2500.0, 2.0, 16000.0, 0.05);
  const Signal vib = acc.capture(chirp_sig, rng);
  const double lf = dsp::band_energy(vib, 0.0, 5.0);
  const double rest_avg =
      dsp::band_energy(vib, 5.0, 100.0) / 19.0;  // per-5Hz-slice average
  EXPECT_GT(lf, 2.0 * rest_avg);
}

TEST(AccelerometerTest, LfDominanceMeasuresBandFraction) {
  Accelerometer acc;
  const Signal low = dsp::tone(200.0, 1.0, 16000.0, 0.05);
  const Signal high = dsp::tone(2000.0, 1.0, 16000.0, 0.05);
  EXPECT_GT(acc.lf_dominance(low), 0.95);
  EXPECT_LT(acc.lf_dominance(high), 0.05);
}

TEST(AccelerometerTest, NoiseGrowsWithLfDominance) {
  // Effect 4: the paper's key physical mechanism — low-frequency-dominated
  // excitation produces a noisier vibration capture.
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  Accelerometer acc(cfg);
  Rng r1(4), r2(4);
  const Signal low = dsp::tone(200.0, 2.0, 16000.0, 0.05);
  const Signal high = dsp::tone(2130.0, 2.0, 16000.0, 0.05);
  const Signal vib_low = acc.capture(low, r1);
  const Signal vib_high = acc.capture(high, r2);
  // Residual noise: the low tone couples at ~0.05 so its capture is almost
  // pure noise; compare that noise against the high tone's noise by looking
  // off the deterministic bins — simplest robust check: the low capture's
  // non-deterministic energy dominates.
  const double det_low = 0.05 * acc.coupling_gain(200.0) / std::sqrt(2.0);
  EXPECT_GT(vib_low.rms(), 3.0 * det_low);
  (void)vib_high;
}

TEST(AccelerometerTest, BroadbandExcitationStaysClean) {
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  Accelerometer acc(cfg);
  Rng rng(5);
  // 2130 Hz: NOT a multiple of 200 Hz, so it aliases to 70 Hz instead of DC.
  const Signal high = dsp::tone(2130.0, 2.0, 16000.0, 0.05);
  const Signal vib = acc.capture(high, rng);
  // Deterministic content (aliased tone) should dominate the capture:
  // total rms close to coupled amplitude / sqrt(2).
  const double det = 0.05 * acc.coupling_gain(2130.0) / std::sqrt(2.0);
  EXPECT_NEAR(vib.rms(), det, 0.5 * det);
}

TEST(AccelerometerTest, BodyMotionConfinedToLowBand) {
  AccelerometerConfig cfg = quiet_config();
  cfg.body_motion_rms = 0.05;
  Accelerometer acc(cfg);
  Rng rng(6);
  const Signal silence = Signal::zeros(32000, 16000.0);
  const Signal vib = acc.capture(silence, rng);
  EXPECT_GT(dsp::band_energy_fraction(vib, 0.0, 4.0), 0.9);
}

TEST(AccelerometerTest, SaturationCapsNoiseAtHighDrive) {
  AccelerometerConfig cfg;
  cfg.body_motion_rms = 0.0;
  Accelerometer acc(cfg);
  Rng r1(7), r2(7);
  const Signal quiet = dsp::tone(200.0, 2.0, 16000.0, 0.02);
  const Signal loud = dsp::tone(200.0, 2.0, 16000.0, 2.0);
  const double n_quiet = acc.capture(quiet, r1).rms();
  const double n_loud = acc.capture(loud, r2).rms();
  // 100x louder drive must NOT give 100x the noise (saturation), but the
  // loud capture carries a 100x bigger deterministic residual, so compare
  // against the saturation bound instead.
  const double bound = cfg.base_noise_rms +
                       cfg.lf_noise_coeff * cfg.lf_noise_saturation_rms +
                       2.0 * acc.coupling_gain(200.0);
  EXPECT_LT(n_loud, bound);
  EXPECT_GT(n_quiet, 0.0);
}

TEST(AccelerometerTest, RejectsUndersampledAudio) {
  Accelerometer acc;
  Rng rng(8);
  const Signal audio({1.0, 2.0}, 300.0);
  EXPECT_THROW(acc.capture(audio, rng), vibguard::InvalidArgument);
}

// Same samples bit for bit, and the generators left at the same point of
// their streams (a pending Box–Muller spare included).
void expect_same_capture(const Signal& got, Rng got_rng, const Signal& want,
                         Rng want_rng) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.sample_rate(), want.sample_rate());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "sample " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got_rng.gaussian()),
            std::bit_cast<std::uint64_t>(want_rng.gaussian()));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got_rng(), want_rng());
}

TEST(AccelerometerTest, DrawThenRealizeMatchesCapture) {
  AccelerometerConfig still;
  still.body_motion_rms = 0.0;
  Rng noise(31);
  const Signal speech = dsp::pink_noise(0.7, 16000.0, 0.05, noise);
  // 50 samples at 16 kHz decimate to no 200 Hz sample at all, yet the
  // capture still draws the stand-in motion's two uniforms.
  const Signal tiny = dsp::pink_noise(50.0 / 16000.0, 16000.0, 0.05, noise);
  ASSERT_EQ(dsp::resampled_size(tiny.size(), 16000.0, 200.0), 0u);
  const Signal empty({}, 16000.0);
  for (const AccelerometerConfig& cfg : {AccelerometerConfig{}, still}) {
    const Accelerometer acc(cfg);
    for (const Signal* audio : {&speech, &tiny, &empty}) {
      for (const bool spare : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "motion rms " << cfg.body_motion_rms << ", "
                     << audio->size() << " samples, spare " << spare);
        Rng one_call(32);
        if (spare) one_call.gaussian();  // leaves a Box–Muller spare
        Rng split = one_call, inline_draws = one_call;
        const Signal want = acc.capture(*audio, one_call);
        dsp::Scratch scratch;
        Signal got;
        acc.realize(*audio, acc.draw(audio->size(), 16000.0, split), got,
                    scratch);
        expect_same_capture(got, split, want, one_call);
        const Signal ref = reference_capture(acc, *audio, inline_draws);
        expect_same_capture(got, split, ref, inline_draws);
      }
    }
    // Empty audio draws nothing at all.
    Rng untouched(33), reference(33);
    acc.draw(0, 16000.0, untouched);
    EXPECT_EQ(untouched(), reference());
  }

  // Explicit motion, as each activity renders it, replaces the stand-in.
  const Accelerometer acc;
  for (const Activity activity : all_activities()) {
    SCOPED_TRACE(activity_name(activity));
    Rng motion_rng(34);
    const Signal motion =
        body_motion(activity, speech.duration(), 200.0, motion_rng);
    Rng split(35), inline_draws(35);
    dsp::Scratch scratch;
    Signal got;
    acc.realize(speech,
                acc.draw_with_motion(speech.size(), 16000.0, motion, split),
                got, scratch);
    const Signal ref = reference_capture(acc, speech, inline_draws, &motion);
    expect_same_capture(got, split, ref, inline_draws);
  }
}

TEST(AccelerometerTest, EmptyAudioEmptyVibration) {
  Accelerometer acc;
  Rng rng(9);
  const Signal audio({}, 16000.0);
  EXPECT_TRUE(acc.capture(audio, rng).empty());
}

}  // namespace
}  // namespace vibguard::sensors
