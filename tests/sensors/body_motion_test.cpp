#include "sensors/body_motion.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dsp/spectral.hpp"
#include "sensors/accelerometer.hpp"
#include "dsp/generate.hpp"

namespace vibguard::sensors {
namespace {

class ActivityTest : public ::testing::TestWithParam<Activity> {};

TEST_P(ActivityTest, GeneratesRequestedDuration) {
  Rng rng(1);
  const Signal m = body_motion(GetParam(), 3.0, 200.0, rng);
  EXPECT_NEAR(m.duration(), 3.0, 0.01);
  EXPECT_DOUBLE_EQ(m.sample_rate(), 200.0);
}

TEST_P(ActivityTest, EnergyConfinedToDailyActivityBand) {
  // Paper ref [22]: daily activities live in ~0.3-3.5 Hz.
  Rng rng(2);
  const Signal m = body_motion(GetParam(), 10.0, 200.0, rng);
  if (m.rms() > 0.0) {
    EXPECT_GT(dsp::band_energy_fraction(m, 0.0, 12.0), 0.9)
        << activity_name(GetParam());
  }
}

TEST_P(ActivityTest, ScaleIsLinear) {
  Rng r1(3), r2(3);
  const Signal a = body_motion(GetParam(), 2.0, 200.0, r1, 1.0);
  const Signal b = body_motion(GetParam(), 2.0, 200.0, r2, 2.0);
  if (a.rms() > 0.0) {
    EXPECT_NEAR(b.rms() / a.rms(), 2.0, 0.2);
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivities, ActivityTest,
                         ::testing::ValuesIn(all_activities()));

TEST(BodyMotionTest, IntensityOrdering) {
  Rng rng(4);
  const double rest =
      body_motion(Activity::kResting, 5.0, 200.0, rng).rms();
  const double walk =
      body_motion(Activity::kWalking, 5.0, 200.0, rng).rms();
  const double run =
      body_motion(Activity::kRunning, 5.0, 200.0, rng).rms();
  EXPECT_LT(rest, walk);
  EXPECT_LT(walk, run);
}

TEST(BodyMotionTest, WalkingIsPeriodicNearTwoHz) {
  Rng rng(5);
  const Signal m = body_motion(Activity::kWalking, 20.0, 200.0, rng);
  EXPECT_GT(dsp::band_energy_fraction(m, 1.4, 2.8), 0.5);
}

TEST(BodyMotionTest, ActivityNamesDistinct) {
  EXPECT_EQ(activity_name(Activity::kWalking), "walking");
  EXPECT_EQ(all_activities().size(), 4u);
}

TEST(BodyMotionTest, RejectsBadArguments) {
  Rng rng(6);
  EXPECT_THROW(body_motion(Activity::kResting, -1.0, 200.0, rng),
               vibguard::InvalidArgument);
  EXPECT_THROW(body_motion(Activity::kResting, 1.0, 0.0, rng),
               vibguard::InvalidArgument);
}

// The accelerometer's capture of `audio` with `motion` in place of its
// built-in stand-in.
Signal motion_capture(const Accelerometer& acc, const Signal& audio,
                      const Signal& motion, Rng& rng) {
  dsp::Scratch scratch;
  Signal out;
  acc.realize(audio,
              acc.draw_with_motion(audio.size(), audio.sample_rate(), motion,
                                   rng),
              out, scratch);
  return out;
}

TEST(CaptureWithMotionTest, MotionAppearsInLowBand) {
  Accelerometer acc;
  Rng r1(7), r2(7), rm(8);
  const Signal audio = dsp::tone(2130.0, 3.0, 16000.0, 0.02);
  const Signal motion =
      body_motion(Activity::kRunning, 3.2, 200.0, rm, 1.0);
  const Signal with = motion_capture(acc, audio, motion, r1);
  const Signal without = motion_capture(acc, audio, Signal({}, 200.0), r2);
  EXPECT_GT(dsp::band_energy(with, 0.0, 5.0),
            2.0 * dsp::band_energy(without, 0.0, 5.0));
}

TEST(CaptureWithMotionTest, RejectsWrongRateMotion) {
  Accelerometer acc;
  Rng rng(9);
  const Signal audio = dsp::tone(1000.0, 1.0, 16000.0, 0.02);
  const Signal motion = Signal::zeros(100, 100.0);
  EXPECT_THROW(acc.draw_with_motion(audio.size(), audio.sample_rate(),
                                    motion, rng),
               vibguard::InvalidArgument);
}

}  // namespace
}  // namespace vibguard::sensors
