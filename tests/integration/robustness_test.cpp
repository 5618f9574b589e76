// Robustness/failure-injection tests: the pipeline must behave sensibly
// (defined scores or clean errors, never crashes or NaN) under degenerate
// and adversarially weird inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "dsp/generate.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard {
namespace {

core::DefenseSystem make_system(core::DefenseMode mode) {
  core::DefenseConfig cfg;
  cfg.mode = mode;
  return core::DefenseSystem(cfg);
}

eval::TrialRecordings make_trial(std::uint64_t seed) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
  Rng rng(seed);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  return sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), user);
}

TEST(RobustnessTest, SilentRecordingsGiveDefinedScore) {
  auto system = make_system(core::DefenseMode::kVibrationBaseline);
  const Signal silence = Signal::zeros(16000, 16000.0);
  Rng rng(1);
  const double s = system.score(silence, silence, nullptr, rng);
  EXPECT_TRUE(std::isfinite(s));
}

TEST(RobustnessTest, PureNoiseRecordingsScoreLow) {
  auto system = make_system(core::DefenseMode::kVibrationBaseline);
  Rng rng(2);
  const Signal a = dsp::white_noise(1.0, 16000.0, 0.02, rng);
  const Signal b = dsp::white_noise(1.0, 16000.0, 0.02, rng);
  Rng score_rng(3);
  const double s = system.score(a, b, nullptr, score_rng);
  EXPECT_LT(s, 0.6);
}

TEST(RobustnessTest, GrosslyMismatchedLengthsHandled) {
  auto system = make_system(core::DefenseMode::kVibrationBaseline);
  const auto t = make_trial(4);
  Rng rng(5);
  const Signal tiny = t.wearable.slice(0, 2000);  // 125 ms
  const double s = system.score(t.va, tiny, nullptr, rng);
  EXPECT_TRUE(std::isfinite(s));
}

TEST(RobustnessTest, ClippedRecordingsStillSeparate) {
  // Hard-clipped input (overdriven mic) must not flip the decision.
  const auto t = make_trial(6);
  Signal clipped_va = t.va;
  const double limit = clipped_va.peak() * 0.3;
  for (double& v : clipped_va) {
    v = std::clamp(v, -limit, limit);
  }
  auto system = make_system(core::DefenseMode::kFull);
  core::OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(7);
  const double s = system.score(clipped_va, t.wearable, &seg, rng);
  EXPECT_GT(s, 0.4);  // clipping distorts but preserves shared structure
}

TEST(RobustnessTest, DcOffsetDoesNotBreakPipeline) {
  const auto t = make_trial(8);
  Signal offset_va = t.va;
  for (double& v : offset_va) v += 0.1;
  auto system = make_system(core::DefenseMode::kFull);
  core::OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(9);
  const double s = system.score(offset_va, t.wearable, &seg, rng);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_GT(s, 0.4);  // the crop removes DC
}

TEST(RobustnessTest, ExtremeDelayOutsideSearchWindowStillDefined) {
  const auto t = make_trial(10);
  // Chop far more than the sync search window from the wearable side.
  const auto chop = static_cast<std::size_t>(0.6 * 16000.0);
  if (t.wearable.size() > chop + 4000) {
    const Signal late = t.wearable.slice(chop, t.wearable.size());
    auto system = make_system(core::DefenseMode::kVibrationBaseline);
    Rng rng(11);
    EXPECT_TRUE(
        std::isfinite(system.score(t.va, late, nullptr, rng)));
  }
}

TEST(RobustnessTest, RandomSeedSweepNeverProducesNan) {
  auto system = make_system(core::DefenseMode::kFull);
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    const auto t = make_trial(seed);
    core::OracleSegmenter seg(t.alignment,
                              eval::reference_sensitive_set());
    Rng rng(seed * 3);
    const double s = system.score(t.va, t.wearable, &seg, rng);
    EXPECT_TRUE(std::isfinite(s)) << seed;
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

}  // namespace
}  // namespace vibguard
