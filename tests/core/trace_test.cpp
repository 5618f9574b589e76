#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/segmentation.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard::core {
namespace {

eval::TrialRecordings make_trial(std::uint64_t seed) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
  Rng rng(seed + 1);
  const auto spk = speech::sample_speaker(speech::Sex::kMale, rng);
  return sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), spk);
}

std::vector<std::string> stage_names(const PipelineTrace& trace) {
  std::vector<std::string> names;
  for (const StageTrace& st : trace.stages) names.emplace_back(st.name);
  return names;
}

TEST(TraceTest, StagesRecordedInAllModes) {
  struct Case {
    DefenseMode mode;
    bool needs_segmenter;
    std::vector<std::string> expected;
  };
  const std::vector<Case> cases = {
      {DefenseMode::kFull, true,
       {"quality", "sync", "segment", "vib_capture", "features",
        "correlate"}},
      {DefenseMode::kVibrationBaseline, false,
       {"quality", "sync", "vib_capture", "features", "correlate"}},
      {DefenseMode::kAudioBaseline, false,
       {"quality", "sync", "audio_features", "correlate"}},
  };
  const auto t = make_trial(61);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  for (const Case& c : cases) {
    DefenseConfig cfg;
    cfg.mode = c.mode;
    DefenseSystem sys(cfg);
    Rng rng(62);
    PipelineTrace trace;
    sys.score(t.va, t.wearable, c.needs_segmenter ? &seg : nullptr, rng,
              &trace);
    EXPECT_EQ(stage_names(trace), c.expected) << mode_name(c.mode);
  }
}

TEST(TraceTest, StageTimingsAreMonotone) {
  const auto t = make_trial(63);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  DefenseSystem sys{DefenseConfig{}};
  Rng rng(64);
  PipelineTrace trace;
  sys.score(t.va, t.wearable, &seg, rng, &trace);
  ASSERT_EQ(trace.stages.size(), 6u);
  for (std::size_t i = 0; i + 1 < trace.stages.size(); ++i) {
    // Each stage begins only after the previous one ended.
    EXPECT_LE(trace.stages[i].start_us + trace.stages[i].wall_us,
              trace.stages[i + 1].start_us)
        << trace.stages[i].name;
  }
}

TEST(TraceTest, SampleCountsChainAcrossStages) {
  const auto t = make_trial(65);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  DefenseSystem sys{DefenseConfig{}};
  Rng rng(66);
  PipelineTrace trace;
  sys.score(t.va, t.wearable, &seg, rng, &trace);
  ASSERT_EQ(trace.stages.size(), 6u);
  // The first stage (the pass-through quality gate) sees both raw
  // recordings; after that every stage consumes exactly what its
  // predecessor produced.
  EXPECT_EQ(trace.stages[0].samples_in, t.va.size() + t.wearable.size());
  EXPECT_EQ(trace.stages[0].samples_out, t.va.size() + t.wearable.size());
  for (std::size_t i = 0; i + 1 < trace.stages.size(); ++i) {
    EXPECT_EQ(trace.stages[i + 1].samples_in, trace.stages[i].samples_out)
        << trace.stages[i].name;
  }
  // The segment stage's output covers both channels of the reported
  // segment duration (equal lengths after synchronization).
  ASSERT_GT(trace.num_ranges, 0u);
  const auto segment_samples = static_cast<std::size_t>(
      std::llround(trace.segment_seconds * t.va.sample_rate()));
  EXPECT_EQ(trace.stages[2].samples_out, 2 * segment_samples);
  // Correlation reduces everything to a single score.
  EXPECT_EQ(trace.stages.back().samples_out, 1u);
}

TEST(TraceTest, WarmWorkspaceRunsAllocationFree) {
  const auto t = make_trial(67);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  DefenseSystem sys{DefenseConfig{}};
  Workspace workspace;
  PipelineTrace trace;
  Rng r1(68);
  const double first = sys.score(t.va, t.wearable, &seg, r1, workspace,
                                 &trace);
  // Second run through the warm workspace: bit-identical score, zero heap
  // allocations in every stage (the tentpole steady-state guarantee).
  Rng r2(68);
  const double second = sys.score(t.va, t.wearable, &seg, r2, workspace,
                                  &trace);
  EXPECT_EQ(first, second);
  for (const StageTrace& st : trace.stages) {
    EXPECT_EQ(st.allocations, 0u) << st.name;
  }
}

TEST(TraceTest, TraceResetsBetweenRuns) {
  const auto t = make_trial(69);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  PipelineTrace trace;
  {
    DefenseSystem sys{DefenseConfig{}};
    Rng rng(70);
    sys.score(t.va, t.wearable, &seg, rng, &trace);
    EXPECT_EQ(trace.stages.size(), 6u);
    EXPECT_GT(trace.num_ranges, 0u);
  }
  {
    DefenseConfig cfg;
    cfg.mode = DefenseMode::kAudioBaseline;
    DefenseSystem sys(cfg);
    Rng rng(71);
    sys.score(t.va, t.wearable, nullptr, rng, &trace);
    // Records are replaced, not appended, and full-mode scalars are reset.
    EXPECT_EQ(trace.stages.size(), 4u);
    EXPECT_EQ(trace.num_ranges, 0u);
  }
}

TEST(TraceTest, StatsAggregateAddClear) {
  PipelineTrace trace;
  trace.stages.push_back(StageTrace{"sync", 0, 10, 8, 8, 2});
  trace.stages.push_back(StageTrace{"correlate", 10, 4, 8, 1, 0});

  PipelineStats stats;
  stats.add(trace);
  stats.add(trace);
  EXPECT_EQ(stats.commands, 2u);
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[0].name, "sync");
  EXPECT_EQ(stats.stages[0].calls, 2u);
  EXPECT_EQ(stats.stages[0].total_wall_us, 20u);
  EXPECT_EQ(stats.stages[0].max_wall_us, 10u);
  EXPECT_EQ(stats.stages[0].total_allocations, 4u);
  EXPECT_DOUBLE_EQ(stats.stages[0].mean_wall_us(), 10.0);

  const std::string summary = stats.summary();
  EXPECT_NE(summary.find("2 command(s)"), std::string::npos);
  EXPECT_NE(summary.find("sync"), std::string::npos);
  EXPECT_NE(summary.find("correlate"), std::string::npos);

  stats.clear();
  EXPECT_EQ(stats.commands, 0u);
  EXPECT_TRUE(stats.stages.empty());
}

TEST(TraceTest, StatsPopulatedInAllModes) {
  const auto t = make_trial(72);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  for (DefenseMode mode :
       {DefenseMode::kFull, DefenseMode::kVibrationBaseline,
        DefenseMode::kAudioBaseline}) {
    DefenseConfig cfg;
    cfg.mode = mode;
    DefenseSystem sys(cfg);
    Rng rng(73);
    PipelineTrace trace;
    sys.score(t.va, t.wearable,
              mode == DefenseMode::kFull ? &seg : nullptr, rng, &trace);
    PipelineStats stats;
    stats.add(trace);
    EXPECT_EQ(stats.commands, 1u) << mode_name(mode);
    EXPECT_EQ(stats.stages.size(), trace.stages.size()) << mode_name(mode);
  }
}

}  // namespace
}  // namespace vibguard::core
