// Cross-cutting DSP property tests: invariants that must hold across broad
// parameter sweeps rather than at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"
#include "dsp/resample.hpp"
#include "dsp/stft.hpp"

namespace vibguard::dsp {
namespace {

// ---------------------------------------------------------------------
// Parseval for the STFT: total spectrogram power tracks signal energy.
// ---------------------------------------------------------------------
class StftEnergyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StftEnergyTest, SpectrogramPowerScalesWithSignalEnergy) {
  const std::size_t window = GetParam();
  Rng rng(window);
  Signal s = white_noise(4.0, 200.0, 0.02, rng);
  const auto spec1 = stft_power(s, window, window / 2);
  double p1 = 0.0;
  for (double v : spec1.values()) p1 += v;
  s.scale(2.0);
  const auto spec2 = stft_power(s, window, window / 2);
  double p2 = 0.0;
  for (double v : spec2.values()) p2 += v;
  EXPECT_NEAR(p2 / p1, 4.0, 1e-9);  // power scales with amplitude^2
}

INSTANTIATE_TEST_SUITE_P(Windows, StftEnergyTest,
                         ::testing::Values(16, 32, 64, 128));

// ---------------------------------------------------------------------
// Resampling: a band-limited signal survives down-and-up rate conversion.
// ---------------------------------------------------------------------
class ResampleRoundTripTest : public ::testing::TestWithParam<double> {};

TEST_P(ResampleRoundTripTest, BandLimitedContentPreserved) {
  const double f = GetParam();
  const Signal original = tone(f, 2.0, 16000.0);
  const Signal down = resample(original, 2000.0);
  const Signal up = resample(down, 16000.0);
  // Compare steady-state RMS (edges suffer filter transients). The
  // up-conversion uses linear interpolation, whose sinc^2 droop grows with
  // f/fs — hence the frequency-dependent tolerance.
  const auto mid = [](const Signal& s) {
    return s.slice(s.size() / 4, 3 * s.size() / 4).rms();
  };
  const double tol = f / 2000.0 < 0.1 ? 0.05 : 0.15;
  EXPECT_NEAR(mid(down), mid(original), 0.05 * mid(original)) << f;
  EXPECT_NEAR(mid(up), mid(original), tol * mid(original)) << f;
}

INSTANTIATE_TEST_SUITE_P(Tones, ResampleRoundTripTest,
                         ::testing::Values(50.0, 100.0, 150.0, 400.0));

// ---------------------------------------------------------------------
// Aliasing arithmetic: folded frequency always lands at the predicted bin.
// ---------------------------------------------------------------------
class AliasTest : public ::testing::TestWithParam<double> {};

TEST_P(AliasTest, FoldsToPredictedFrequency) {
  const double f = GetParam();
  const double fs = 200.0;
  // Predicted alias: fold f into [0, fs/2].
  double alias = std::fmod(f, fs);
  if (alias > fs / 2.0) alias = fs - alias;

  const Signal in = tone(f, 4.0, 16000.0);
  const Signal out = decimate_alias(in, fs);
  const auto mag = magnitude_spectrum(out.samples());
  std::size_t best = 1;
  for (std::size_t k = 2; k < mag.size(); ++k) {
    if (mag[k] > mag[best]) best = k;
  }
  const double measured = bin_frequency(best, out.size(), fs);
  EXPECT_NEAR(measured, alias, 1.5) << "f=" << f;
}

INSTANTIATE_TEST_SUITE_P(Frequencies, AliasTest,
                         ::testing::Values(30.0, 130.0, 230.0, 330.0, 430.0,
                                           530.0, 1030.0, 2130.0, 3210.0));

// ---------------------------------------------------------------------
// Gain-curve filter composes multiplicatively.
// ---------------------------------------------------------------------
TEST(GainCurveProperty, SequentialApplicationsCompose) {
  // Power-of-two length so no zero-padding truncation happens between the
  // two applications (padding residue is what breaks exact composition).
  Rng rng(9);
  const Signal in(rng.gaussian_vector(1024), 2000.0);
  auto g1 = [](double f) { return 1.0 / (1.0 + f / 300.0); };
  auto g2 = [](double f) { return f / (f + 100.0); };
  const Signal seq = apply_gain_curve(apply_gain_curve(in, g1), g2);
  const Signal combined = apply_gain_curve(
      in, [&](double f) { return g1(f) * g2(f); });
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_NEAR(seq[i], combined[i], 1e-9);
  }
}

}  // namespace
}  // namespace vibguard::dsp
