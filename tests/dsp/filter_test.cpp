#include "dsp/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/generate.hpp"

namespace vibguard::dsp {
namespace {

TEST(FirTest, LowpassUnityDcGain) {
  const auto taps = design_fir_lowpass(100.0, 1000.0, 51);
  double sum = 0.0;
  for (double t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(FirTest, RejectsEvenLength) {
  EXPECT_THROW(design_fir_lowpass(100.0, 1000.0, 50), InvalidArgument);
}

TEST(FirTest, AttenuatesStopband) {
  const auto taps = design_fir_lowpass(50.0, 1000.0, 101);
  const Signal in = tone(300.0, 1.0, 1000.0);
  const auto out = fir_filter(in.samples(), taps);
  Signal out_sig(std::vector<double>(out.begin(), out.end()), 1000.0);
  EXPECT_LT(out_sig.slice(200, 800).rms(), 0.01);
}

TEST(FirTest, PassesPassband) {
  const auto taps = design_fir_lowpass(200.0, 1000.0, 101);
  const Signal in = tone(50.0, 1.0, 1000.0);
  const auto out = fir_filter(in.samples(), taps);
  Signal out_sig(std::vector<double>(out.begin(), out.end()), 1000.0);
  EXPECT_NEAR(out_sig.slice(200, 800).rms(), in.slice(200, 800).rms(), 0.02);
}

TEST(FirTest, GroupDelayCompensated) {
  // A pulse at the center should stay at the center.
  std::vector<double> x(101, 0.0);
  x[50] = 1.0;
  const auto taps = design_fir_lowpass(100.0, 1000.0, 31);
  const auto y = fir_filter(x, taps);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] > y[peak]) peak = i;
  }
  EXPECT_EQ(peak, 50u);
}

TEST(GainCurveTest, FlatUnityGainIsIdentity) {
  Rng rng(1);
  const Signal in = white_noise(0.5, 1000.0, 1.0, rng);
  const Signal out = apply_gain_curve(in, [](double) { return 1.0; });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], in[i], 1e-9);
  }
}

TEST(GainCurveTest, BandStopRemovesBand) {
  const Signal in = tone(100.0, 1.0, 1000.0);
  const Signal out = apply_gain_curve(
      in, [](double f) { return (f > 60.0 && f < 140.0) ? 0.0 : 1.0; });
  // Zero-padding to the FFT grid leaks some tone energy outside the band.
  EXPECT_LT(out.rms(), 0.15 * in.rms());
}

TEST(GainCurveTest, ScalesAmplitudeByGainAtToneFrequency) {
  const Signal in = tone(100.0, 1.0, 1000.0);
  const Signal out =
      apply_gain_curve(in, [](double f) { return f > 50.0 ? 0.25 : 1.0; });
  EXPECT_NEAR(out.slice(100, 900).rms(), 0.25 * in.slice(100, 900).rms(),
              0.01);
}

TEST(GainCurveTest, OutputStaysReal) {
  Rng rng(2);
  const Signal in = white_noise(0.3, 1000.0, 1.0, rng);
  const Signal out =
      apply_gain_curve(in, [](double f) { return 1.0 / (1.0 + f / 100.0); });
  for (double v : out) EXPECT_TRUE(std::isfinite(v));
}

TEST(GainCurveTest, EmptySignalPassesThrough) {
  const Signal in({}, 1000.0);
  const Signal out = apply_gain_curve(in, [](double) { return 1.0; });
  EXPECT_TRUE(out.empty());
}

TEST(GainCurveTest, TableMustMatchTheSignalsGrid) {
  const Signal in = Signal::zeros(300, 1000.0);  // 512-point grid
  const std::vector<double> table(256, 1.0);
  Signal out;
  std::vector<std::complex<double>> work;
  EXPECT_THROW(apply_gain_curve(in, table, out, work),
               vibguard::InvalidArgument);
}

TEST(GainCurveTest, TableCacheKeysOnParametersAndGrid) {
  GainTableCache cache;
  const Signal a = Signal::zeros(300, 1000.0);       // 512-point grid
  const Signal same_grid = Signal::zeros(400, 1000.0);
  const Signal other_rate = Signal::zeros(300, 2000.0);
  const Signal other_size = Signal::zeros(600, 1000.0);
  std::size_t evaluations = 0;
  const auto hz = [&evaluations](double f) {
    ++evaluations;
    return f;
  };
  const auto table = cache.get({1.0}, a, hz);
  ASSERT_EQ(table.size(), 257u);
  EXPECT_EQ(table[256], 500.0);
  EXPECT_EQ(evaluations, 257u);
  cache.get({1.0}, same_grid, hz);
  EXPECT_EQ(evaluations, 257u);
  cache.get({2.0}, a, hz);
  cache.get({1.0}, other_rate, hz);
  cache.get({1.0}, other_size, hz);
  EXPECT_EQ(evaluations, 3 * 257u + 513u);
}

}  // namespace
}  // namespace vibguard::dsp
