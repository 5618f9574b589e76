#include "device/wearable.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dsp/generate.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::device {
namespace {

TEST(WearableTest, PresetsHaveDistinctProperties) {
  const auto fossil = fossil_gen5();
  const auto moto = moto360();
  EXPECT_EQ(fossil.name, "Fossil Gen 5");
  EXPECT_EQ(moto.name, "Moto 360 (2020)");
  EXPECT_GT(moto.accelerometer.base_noise_rms,
            fossil.accelerometer.base_noise_rms);
}

TEST(WearableTest, RecordProducesMicRateSignal) {
  Wearable w;
  Rng rng(1);
  const Signal in = dsp::tone(1000.0, 0.5, 16000.0, 0.05);
  const Signal rec = w.record(in, rng);
  EXPECT_DOUBLE_EQ(rec.sample_rate(), 16000.0);
  EXPECT_EQ(rec.size(), in.size());
}

TEST(WearableTest, CrossDomainCaptureProducesVibrationRate) {
  Wearable w;
  Rng rng(2);
  const Signal rec = dsp::tone(1500.0, 1.0, 16000.0, 0.05);
  const Signal vib = w.cross_domain_capture(rec, rng);
  EXPECT_DOUBLE_EQ(vib.sample_rate(), 200.0);
  EXPECT_GT(vib.rms(), 0.0);
}

TEST(WearableTest, HighFrequencyContentSurvivesConversion) {
  // The defining property of cross-domain sensing: HF audio content creates
  // vibration; LF-only audio creates mostly noise.
  Wearable w;
  Rng r1(3), r2(3);
  const Signal hf = dsp::tone(2130.0, 1.0, 16000.0, 0.05);  // aliases to 70 Hz
  const Signal lf = dsp::tone(250.0, 1.0, 16000.0, 0.05);
  const Signal vib_hf = w.cross_domain_capture(hf, r1);
  const Signal vib_lf = w.cross_domain_capture(lf, r2);
  // The HF signal yields a far stronger deterministic vibration: its band
  // energy concentrates at the alias frequency while LF yields noise.
  EXPECT_GT(vib_hf.rms(), 2.0 * vib_lf.rms());
}

TEST(WearableTest, CaptureIsReproducibleGivenSeed) {
  Wearable w;
  Rng r1(4), r2(4);
  const Signal rec = dsp::tone(1200.0, 0.5, 16000.0, 0.05);
  const Signal v1 = w.cross_domain_capture(rec, r1);
  const Signal v2 = w.cross_domain_capture(rec, r2);
  ASSERT_EQ(v1.size(), v2.size());
  for (std::size_t i = 0; i < v1.size(); ++i) {
    EXPECT_DOUBLE_EQ(v1[i], v2[i]);
  }
}

// The capture as the wearable composed it before its draw/realize split:
// render, then the activity's motion, then the accelerometer's capture of
// the rendered replay.
Signal composed_capture(const Wearable& w, const Signal& rec,
                        std::optional<sensors::Activity> activity,
                        Rng& rng) {
  const Signal rendered = w.speaker().render(rec);
  const sensors::Accelerometer& acc = w.accelerometer();
  if (!activity) return acc.capture(rendered, rng);
  Signal motion = sensors::body_motion(*activity, rec.duration() + 0.1,
                                       acc.config().sample_rate, rng);
  dsp::Scratch scratch;
  Signal out;
  acc.realize(rendered,
              acc.draw_with_motion(rendered.size(), rendered.sample_rate(),
                                   std::move(motion), rng),
              out, scratch);
  return out;
}

TEST(WearableTest, DrawThenRealizeMatchesCapture) {
  // realize_capture(draw_capture(...)) against the pre-split composition
  // and, with no activity, the one-call capture, each on a copy of the
  // same generator: the same vibration bits, and the generator left at
  // the same point (a pending Box–Muller spare included).
  WearableConfig still = fossil_gen5();
  still.accelerometer.body_motion_rms = 0.0;
  Rng noise(41);
  const Signal speech = dsp::pink_noise(0.6, 16000.0, 0.05, noise);
  // Decimates to no 200 Hz sample, but still draws the motion.
  const Signal tiny = dsp::pink_noise(50.0 / 16000.0, 16000.0, 0.05, noise);
  const Signal empty({}, 16000.0);
  std::vector<std::optional<sensors::Activity>> activities = {std::nullopt};
  for (const sensors::Activity a : sensors::all_activities()) {
    activities.push_back(a);
  }
  for (const WearableConfig& cfg : {fossil_gen5(), still}) {
    const Wearable w(cfg);
    for (const auto& activity : activities) {
      for (const Signal* rec : {&speech, &tiny, &empty}) {
        for (const bool spare : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "motion rms "
                       << cfg.accelerometer.body_motion_rms << ", activity "
                       << (activity ? sensors::activity_name(*activity)
                                    : std::string("none"))
                       << ", " << rec->size() << " samples, spare " << spare);
          Rng one_call(42);
          if (spare) one_call.gaussian();  // leaves a Box–Muller spare
          Rng split = one_call, composed = one_call;
          const Signal ref = composed_capture(w, *rec, activity, composed);
          dsp::Scratch scratch;
          Signal got;
          w.realize_capture(*rec, w.draw_capture(*rec, split, activity), got,
                            scratch);
          std::vector<std::pair<Signal, Rng>> expectations = {{ref, composed}};
          if (!activity) {
            const Signal want = w.cross_domain_capture(*rec, one_call);
            expectations.emplace_back(want, one_call);
          }
          for (const auto& [expected, expected_rng] : expectations) {
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                        std::bit_cast<std::uint64_t>(expected[i]))
                  << "sample " << i;
            }
            Rng a = split, b = expected_rng;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.gaussian()),
                      std::bit_cast<std::uint64_t>(b.gaussian()));
            for (int i = 0; i < 3; ++i) EXPECT_EQ(a(), b());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace vibguard::device
