#include "sensors/speaker.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/filter.hpp"
#include "dsp/generate.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::sensors {
namespace {

// render_into's definition: the response evaluated through std::function
// for every bin, then the tanh soft clipper sample by sample.
Signal reference_render(const Speaker& speaker, const Signal& in) {
  Signal out = dsp::apply_gain_curve(
      in, [&speaker](double f) { return speaker.response(f); });
  const double distortion = speaker.config().distortion;
  const double peak = out.peak();
  if (distortion > 0.0 && peak > 0.0) {
    const double drive = 1.0 + distortion * 4.0;
    for (double& s : out) {
      s = peak * std::tanh(drive * s / peak) / std::tanh(drive);
    }
  }
  return out;
}

void expect_same_bits(const Signal& got, const Signal& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.sample_rate(), want.sample_rate());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "sample " << i;
  }
}

TEST(SpeakerTest, GainTableRenderMatchesCurveBitForBit) {
  // Two FFT grids (4096 and 16384 points) with both speakers alternating
  // on one thread, twice: a table cache keyed on the grid alone would hand
  // one speaker's response to the other.
  Rng rng(9);
  const Signal short_in = dsp::pink_noise(0.2, 16000.0, 0.1, rng);
  const Signal long_in = dsp::pink_noise(0.9, 16000.0, 0.1, rng);
  const Speaker playback(playback_loudspeaker());
  const Speaker wearable(wearable_speaker());
  Signal out;
  std::vector<std::complex<double>> work;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Signal* in : {&short_in, &long_in}) {
      for (const Speaker* speaker : {&playback, &wearable}) {
        speaker->render_into(*in, out, work);
        expect_same_bits(out, reference_render(*speaker, *in));
      }
    }
  }
}

TEST(SpeakerTest, RenderIntoInPlace) {
  Rng rng(10);
  const Signal in = dsp::white_noise(0.5, 16000.0, 0.05, rng);
  const Speaker speaker(wearable_speaker());
  Signal buffer = in;
  std::vector<std::complex<double>> work;
  speaker.render_into(buffer, buffer, work);
  expect_same_bits(buffer, reference_render(speaker, in));
}

TEST(SpeakerTest, WearableSpeakerWeakBelow350) {
  Speaker s(wearable_speaker());
  EXPECT_LT(s.response(100.0), 0.15);
  EXPECT_NEAR(s.response(2000.0), 1.0, 0.1);
}

TEST(SpeakerTest, PlaybackLoudspeakerFullerRange) {
  Speaker playback(playback_loudspeaker());
  Speaker wearable(wearable_speaker());
  EXPECT_GT(playback.response(150.0), 3.0 * wearable.response(150.0));
}

TEST(SpeakerTest, RenderShiftsBalanceUpward) {
  Rng rng(1);
  const Signal in = dsp::pink_noise(1.0, 16000.0, 0.1, rng);
  Speaker s(wearable_speaker());
  const Signal out = s.render(in);
  EXPECT_GT(dsp::spectral_centroid(out), dsp::spectral_centroid(in));
}

TEST(SpeakerTest, LinearSpeakerPreservesWaveformShape) {
  SpeakerConfig cfg = playback_loudspeaker();
  cfg.distortion = 0.0;
  Speaker s(cfg);
  const Signal in = dsp::tone(1000.0, 0.2, 16000.0, 0.1);
  const Signal out = s.render(in);
  // Mid-band tone passes nearly unchanged.
  EXPECT_NEAR(out.rms(), in.rms(), 0.05 * in.rms());
}

TEST(SpeakerTest, DistortionAddsHarmonics) {
  SpeakerConfig cfg = playback_loudspeaker();
  cfg.distortion = 0.3;
  Speaker s(cfg);
  const Signal in = dsp::tone(500.0, 0.5, 16000.0, 1.0);
  const Signal out = s.render(in);
  // Odd-order distortion puts energy at 1500 Hz.
  EXPECT_GT(dsp::band_energy(out, 1400.0, 1600.0),
            5.0 * dsp::band_energy(in, 1400.0, 1600.0) + 1e-12);
}

TEST(SpeakerTest, RejectsBadConfig) {
  SpeakerConfig cfg{1000.0, 100.0, 0.0};
  EXPECT_THROW(Speaker{cfg}, vibguard::InvalidArgument);
  SpeakerConfig cfg2{100.0, 1000.0, -0.1};
  EXPECT_THROW(Speaker{cfg2}, vibguard::InvalidArgument);
}

}  // namespace
}  // namespace vibguard::sensors
