#include "speech/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/db.hpp"
#include "common/error.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::speech {
namespace {

SpeakerProfile test_speaker() {
  Rng rng(42);
  return sample_speaker(Sex::kMale, rng);
}

class PhonemeSynthesisTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PhonemeSynthesisTest, ProducesFiniteNonEmptyAudio) {
  Synthesizer synth;
  Rng rng(1);
  const Signal s = synth.synthesize(phoneme_by_symbol(GetParam()),
                                    test_speaker(), rng);
  EXPECT_FALSE(s.empty());
  EXPECT_GT(s.rms(), 0.0);
  for (double v : s) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(PhonemeSynthesisTest, RmsEncodesRelativeIntensity) {
  Synthesizer synth;
  Rng rng(2);
  const Phoneme& p = phoneme_by_symbol(GetParam());
  const Signal s = synth.synthesize(p, test_speaker(), rng);
  const double expected = kReferenceRms * db_to_amplitude(p.intensity_db);
  EXPECT_NEAR(s.rms(), expected, 0.05 * expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllCommonPhonemes, PhonemeSynthesisTest,
                         ::testing::Values("aa", "ae", "ah", "ao", "aw",
                                           "ay", "b", "ch", "d", "dh", "eh",
                                           "er", "ey", "f", "g", "hh", "ih",
                                           "iy", "jh", "k", "l", "m", "n",
                                           "ng", "ow", "p", "r", "s", "sh",
                                           "t", "th", "uh", "uw", "v", "w",
                                           "y", "z"));

TEST(SynthesizerTest, VowelEnergyPeaksNearFormants) {
  Synthesizer synth;
  Rng rng(3);
  const Phoneme& ae = phoneme_by_symbol("ae");  // F1 660, F2 1720
  const Signal s = synth.synthesize(ae, test_speaker(), rng);
  const double near_f1 = dsp::band_energy(s, 500.0, 900.0);
  const double between = dsp::band_energy(s, 2800.0, 3800.0);
  EXPECT_GT(near_f1, 3.0 * between);
}

TEST(SynthesizerTest, FricativeEnergyInFricationBand) {
  Synthesizer synth;
  Rng rng(4);
  const Signal s =
      synth.synthesize(phoneme_by_symbol("s"), test_speaker(), rng);
  // /s/: 4-7.8 kHz band.
  EXPECT_GT(dsp::band_energy_fraction(s, 3500.0, 8000.0), 0.8);
}

TEST(SynthesizerTest, VowelIsLowFrequencyDominatedVsFricative) {
  Synthesizer synth;
  Rng rng(5);
  const Signal aa =
      synth.synthesize(phoneme_by_symbol("aa"), test_speaker(), rng);
  const Signal s =
      synth.synthesize(phoneme_by_symbol("s"), test_speaker(), rng);
  EXPECT_GT(dsp::band_energy_fraction(aa, 0.0, 1500.0), 0.9);
  EXPECT_LT(dsp::band_energy_fraction(s, 0.0, 1500.0), 0.2);
}

TEST(SynthesizerTest, PlosiveHasSilentClosureThenBurst) {
  Synthesizer synth;
  Rng rng(6);
  const Signal t =
      synth.synthesize(phoneme_by_symbol("t"), test_speaker(), rng);
  const std::size_t third = t.size() / 3;
  const double closure_rms = t.slice(0, third).rms();
  const double burst_rms = t.slice(t.size() - third, t.size()).rms();
  EXPECT_GT(burst_rms, 3.0 * closure_rms);
}

TEST(SynthesizerTest, VoicedPlosiveHasVoiceBar) {
  Synthesizer synth;
  Rng rng(7);
  const Signal b =
      synth.synthesize(phoneme_by_symbol("b"), test_speaker(), rng);
  const Signal p =
      synth.synthesize(phoneme_by_symbol("p"), test_speaker(), rng);
  // /b/ closure carries low-frequency voicing; /p/ closure is silent.
  const double b_closure = b.slice(0, b.size() / 3).rms();
  const double p_closure = p.slice(0, p.size() / 3).rms();
  EXPECT_GT(b_closure, 2.0 * p_closure);
}

TEST(SynthesizerTest, FemaleFormantsShiftedUp) {
  Synthesizer synth;
  Rng rng(8);
  SpeakerProfile male = test_speaker();
  SpeakerProfile female = male;
  female.formant_scale = 1.18;
  female.f0_hz = 210.0;
  const Phoneme& iy = phoneme_by_symbol("iy");
  Rng r1(9), r2(9);
  const Signal sm = synth.synthesize(iy, male, r1);
  const Signal sf = synth.synthesize(iy, female, r2);
  EXPECT_GT(dsp::spectral_centroid(sf), dsp::spectral_centroid(sm));
}

TEST(SynthesizerTest, FormantGainPeaksAtFormantFrequency) {
  const Phoneme& aa = phoneme_by_symbol("aa");
  SpeakerProfile spk = test_speaker();
  spk.formant_scale = 1.0;
  const double at_f1 = Synthesizer::formant_gain(aa, spk, 730.0);
  const double off = Synthesizer::formant_gain(aa, spk, 1800.0);
  EXPECT_GT(at_f1, 2.0 * off);
}

TEST(SynthesizerTest, SequenceConcatenatesWithCrossfade) {
  Synthesizer synth;
  Rng rng(10);
  std::vector<Phoneme> seq = {phoneme_by_symbol("aa"),
                              phoneme_by_symbol("s")};
  const Signal s = synth.synthesize_sequence(seq, test_speaker(), rng);
  // Shorter than the sum (cross-fade) but longer than either part alone.
  EXPECT_GT(s.duration(), phoneme_by_symbol("aa").duration_s * 0.7);
  EXPECT_GT(s.duration(), 0.15);
}

TEST(SynthesizerTest, DurationScaleStretchesOutput) {
  Synthesizer synth;
  Rng r1(11), r2(11);
  const Phoneme& ae = phoneme_by_symbol("ae");
  const Signal s1 = synth.synthesize(ae, test_speaker(), r1, 1.0);
  const Signal s2 = synth.synthesize(ae, test_speaker(), r2, 2.0);
  EXPECT_NEAR(s2.duration() / s1.duration(), 2.0, 0.1);
}

TEST(SynthesizerTest, RejectsBadConfig) {
  SynthesizerConfig cfg;
  cfg.max_harmonic_hz = 9000.0;  // above Nyquist for 16 kHz
  EXPECT_THROW(Synthesizer{cfg}, vibguard::InvalidArgument);
  // A speaker without a positive F0 has no harmonic series.
  Rng rng(13);
  for (const double f0 : {0.0, -120.0}) {
    SpeakerProfile mute = test_speaker();
    mute.f0_hz = f0;
    EXPECT_THROW(
        Synthesizer{}.synthesize(phoneme_by_symbol("aa"), mute, rng),
        vibguard::InvalidArgument);
  }
}

TEST(SynthesizerTest, EdgesAreRamped) {
  Synthesizer synth;
  Rng rng(12);
  const Signal s =
      synth.synthesize(phoneme_by_symbol("aa"), test_speaker(), rng);
  EXPECT_LT(std::abs(s[0]), 1e-9);
  EXPECT_LT(std::abs(s[s.size() - 1]), 1e-9);
}


TEST(SynthesizerTest, DiphthongFormantsGlide) {
  // /ay/ glides F2 from ~1220 Hz to ~1900 Hz: the F2-target band's energy
  // share must grow from the first half to the second. (The overall
  // centroid is ambiguous because F1 simultaneously falls.)
  Synthesizer synth;
  Rng rng(13);
  const Signal s =
      synth.synthesize(phoneme_by_symbol("ay"), test_speaker(), rng);
  const Signal first = s.slice(0, s.size() / 2);
  const Signal second = s.slice(s.size() / 2, s.size());
  EXPECT_GT(dsp::band_energy_fraction(second, 1700.0, 2200.0),
            1.5 * dsp::band_energy_fraction(first, 1700.0, 2200.0));
}

TEST(SynthesizerTest, StaticVowelDoesNotGlide) {
  Synthesizer synth;
  Rng rng(14);
  const Signal s =
      synth.synthesize(phoneme_by_symbol("aa"), test_speaker(), rng);
  const Signal first = s.slice(0, s.size() / 2);
  const Signal second = s.slice(s.size() / 2, s.size());
  EXPECT_NEAR(dsp::spectral_centroid(second),
              dsp::spectral_centroid(first), 150.0);
}

TEST(PhonemeTableTest, DiphthongsHaveGlideTargets) {
  for (const char* sym : {"ey", "ay", "aw", "ow"}) {
    const Phoneme& p = phoneme_by_symbol(sym);
    ASSERT_EQ(p.end_formants.size(), p.formants.size()) << sym;
  }
  EXPECT_TRUE(phoneme_by_symbol("aa").end_formants.empty());
}

}  // namespace
}  // namespace vibguard::speech
