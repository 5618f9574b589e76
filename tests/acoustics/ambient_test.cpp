#include "acoustics/ambient.hpp"

#include <gtest/gtest.h>

#include "acoustics/room.hpp"
#include "common/db.hpp"
#include "common/error.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::acoustics {
namespace {

class AmbientKindTest : public ::testing::TestWithParam<AmbientKind> {};

TEST_P(AmbientKindTest, MatchesRequestedLevel) {
  Rng rng(1);
  const Signal n = ambient_noise(GetParam(), 2.0, 16000.0, 50.0, rng);
  EXPECT_NEAR(rms_to_spl(n.rms()), 50.0, 0.5);
}

TEST_P(AmbientKindTest, RequestedDurationAndRate) {
  Rng rng(2);
  const Signal n = ambient_noise(GetParam(), 1.5, 16000.0, 40.0, rng);
  EXPECT_NEAR(n.duration(), 1.5, 0.01);
  EXPECT_DOUBLE_EQ(n.sample_rate(), 16000.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AmbientKindTest,
                         ::testing::ValuesIn(all_ambient_kinds()));

TEST(AmbientTest, HvacIsLowFrequencyDominated) {
  Rng rng(3);
  const Signal n =
      ambient_noise(AmbientKind::kHvac, 4.0, 16000.0, 50.0, rng);
  EXPECT_GT(dsp::band_energy_fraction(n, 0.0, 300.0), 0.9);
}

TEST(AmbientTest, BabbleOccupiesSpeechBand) {
  Rng rng(4);
  const Signal n =
      ambient_noise(AmbientKind::kBabble, 4.0, 16000.0, 50.0, rng);
  EXPECT_GT(dsp::band_energy_fraction(n, 100.0, 2000.0), 0.6);
}

TEST(AmbientTest, MusicHasBeatStructure) {
  Rng rng(5);
  const Signal n =
      ambient_noise(AmbientKind::kMusic, 6.0, 16000.0, 50.0, rng);
  // Short-window level should oscillate (beat), unlike steady noise.
  const auto win = static_cast<std::size_t>(0.1 * 16000.0);
  double mx = 0.0, mn = 1e9;
  for (std::size_t i = 0; i + win < n.size(); i += win) {
    const double r = n.slice(i, i + win).rms();
    mx = std::max(mx, r);
    mn = std::min(mn, r);
  }
  EXPECT_GT(mx, 1.7 * mn);
}

TEST(AmbientTest, NamesDistinct) {
  EXPECT_EQ(ambient_name(AmbientKind::kBabble), "babble");
  EXPECT_EQ(all_ambient_kinds().size(), 4u);
}

TEST(AmbientTest, RoomConfigDefaultsToQuiet) {
  EXPECT_EQ(RoomConfig{}.ambient_kind, AmbientKind::kQuiet);
}

TEST(AmbientTest, RejectsNegativeDuration) {
  Rng rng(6);
  EXPECT_THROW(ambient_noise(AmbientKind::kQuiet, -1.0, 16000.0, 40.0, rng),
               vibguard::InvalidArgument);
}

TEST(AmbientTest, RejectsMusicBelowTwoHertz) {
  // Music changes notes every sample_rate / 2 samples; below 2 Hz that
  // period truncates to zero.
  Rng rng(7);
  EXPECT_THROW(ambient_noise(AmbientKind::kMusic, 2.0, 1.5, 40.0, rng),
               vibguard::InvalidArgument);
}

}  // namespace
}  // namespace vibguard::acoustics
