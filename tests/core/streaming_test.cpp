#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <limits>
#include <span>
#include <vector>

#include "attacks/attack.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/quality.hpp"
#include "core/segmentation.hpp"
#include "core/trace.hpp"
#include "dsp/simd.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard::core {
namespace {

eval::TrialRecordings make_trial(std::uint64_t seed, bool attack) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
  Rng rng(seed + 1);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto cmd = speech::command_by_text("turn on the lights");
  if (!attack) return sim.legitimate_trial(cmd, user);
  const auto adv = speech::sample_speaker(speech::Sex::kFemale, rng);
  return sim.attack_trial(attacks::AttackType::kReplay, cmd, user, adv);
}

/// The up-to-`n` samples of `s` from `offset` on (empty past the end).
std::span<const double> frame_at(const Signal& s, std::size_t offset,
                                 std::size_t n) {
  const std::size_t begin = std::min(offset, s.size());
  return s.samples().subspan(begin, std::min(n, s.size() - begin));
}

/// Streams `trial` through `pipeline` with va frames of `va_frame` samples
/// and wearable frames of `wear_frame` samples (0 = push the whole channel
/// in one call), then finalizes.
StreamOutcome stream_with_schedule(StreamingPipeline& pipeline,
                                   const eval::TrialRecordings& trial,
                                   const Segmenter* segmenter, const Rng& rng,
                                   std::size_t va_frame,
                                   std::size_t wear_frame) {
  pipeline.begin(trial.va.sample_rate(), segmenter, rng);
  const auto frame_of = [](const Signal& s, std::size_t offset,
                           std::size_t frame) {
    return frame_at(s, offset, frame == 0 ? s.size() : frame);
  };
  std::size_t va_off = 0;
  std::size_t wear_off = 0;
  while (va_off < trial.va.size() || wear_off < trial.wearable.size()) {
    const auto va = frame_of(trial.va, va_off, va_frame);
    const auto wear = frame_of(trial.wearable, wear_off, wear_frame);
    pipeline.push(va, wear);
    va_off += va.size();
    wear_off += wear.size();
    if (va.empty() && wear.empty()) break;
  }
  return pipeline.finalize();
}

/// Constant-posterior model: drives the rule deterministically.
class FixedConfidence final : public ConfidenceModel {
 public:
  explicit FixedConfidence(double p) : p_(p) {}
  double posterior_attack(double) const override { return p_; }

 private:
  double p_;
};

class StreamingBitIdentityTest : public ::testing::TestWithParam<bool> {};

TEST_P(StreamingBitIdentityTest, MatchesBatchForAnyPushSchedule) {
  const bool attack = GetParam();
  const auto trial = make_trial(attack ? 101 : 100, attack);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));

  Workspace workspace;
  Rng batch_rng(7);
  const ScoreOutcome batch = system.try_score(trial.va, trial.wearable, &seg,
                                              batch_rng, workspace);
  ASSERT_TRUE(batch.ok());

  StreamingPipeline pipeline(system);
  const struct {
    std::size_t va_frame;
    std::size_t wear_frame;
  } schedules[] = {
      {0, 0},       // both channels in one push
      {512, 512},   // equal mid-size frames
      {997, 1501},  // ragged, unequal frame sizes
      {1, 4096},    // single-sample va pushes against large wearable frames
  };
  for (const auto& s : schedules) {
    const StreamOutcome out = stream_with_schedule(
        pipeline, trial, &seg, Rng(7), s.va_frame, s.wear_frame);
    EXPECT_EQ(out.verdict, StreamVerdict::kCompleted);
    EXPECT_FALSE(out.early_exit);
    ASSERT_TRUE(out.outcome.ok());
    // Bitwise identity, not closeness: the exact finalize pass re-runs the
    // batch pipeline on the accumulated buffers with an untouched copy of
    // the begin()-time rng.
    EXPECT_EQ(out.outcome.score, batch.score)
        << "va_frame=" << s.va_frame << " wear_frame=" << s.wear_frame;
  }
}

INSTANTIATE_TEST_SUITE_P(LegitAndAttack, StreamingBitIdentityTest,
                         ::testing::Values(false, true));

TEST(StreamingPipelineTest, BaselineModesMatchBatchToo) {
  const auto trial = make_trial(102, false);
  for (const DefenseMode mode :
       {DefenseMode::kVibrationBaseline, DefenseMode::kAudioBaseline}) {
    DefenseConfig cfg;
    cfg.mode = mode;
    DefenseSystem system(cfg);
    Workspace workspace;
    Rng batch_rng(9);
    const ScoreOutcome batch = system.try_score(
        trial.va, trial.wearable, nullptr, batch_rng, workspace);
    ASSERT_TRUE(batch.ok());

    StreamingPipeline pipeline(system);
    const StreamOutcome out =
        stream_with_schedule(pipeline, trial, nullptr, Rng(9), 773, 2048);
    ASSERT_TRUE(out.outcome.ok()) << mode_name(mode);
    EXPECT_EQ(out.outcome.score, batch.score) << mode_name(mode);
  }
}

TEST(StreamingPipelineTest, BaselineModesRejectAnytimeConfig) {
  // Baseline modes have no anytime evidence, so an armed rule could never
  // fire and a kProvisional finalize would have no score to report.
  const FixedConfidence model(0.5);
  StreamingConfig armed;
  armed.stop.enabled = true;
  armed.stop.confidence = &model;
  StreamingConfig provisional;
  provisional.finalize = StreamingConfig::Finalize::kProvisional;
  for (const DefenseMode mode :
       {DefenseMode::kVibrationBaseline, DefenseMode::kAudioBaseline}) {
    DefenseConfig cfg;
    cfg.mode = mode;
    DefenseSystem system(cfg);
    for (const StreamingConfig& bad : {armed, provisional}) {
      StreamingPipeline pipeline(system, bad);
      EXPECT_THROW(pipeline.begin(16000.0, nullptr, Rng(9)), InvalidArgument)
          << mode_name(mode);
    }
    // The default config (rule off, exact finalize) streams as before.
    StreamingPipeline pipeline(system);
    EXPECT_NO_THROW(pipeline.begin(16000.0, nullptr, Rng(9)))
        << mode_name(mode);
  }
}

TEST(StreamingPipelineTest, ReusedPipelineStreamsBitIdentical) {
  const auto trial = make_trial(103, true);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  const StreamOutcome first =
      stream_with_schedule(pipeline, trial, &seg, Rng(11), 640, 640);
  const StreamOutcome second =
      stream_with_schedule(pipeline, trial, &seg, Rng(11), 640, 640);
  ASSERT_TRUE(first.outcome.ok());
  EXPECT_EQ(first.outcome.score, second.outcome.score);
  EXPECT_EQ(first.provisional_score, second.provisional_score);
  EXPECT_EQ(first.coarse_score, second.coarse_score);
}

TEST(StreamingPipelineTest, ProvisionalScoresInvariantToPushSchedule) {
  const auto trial = make_trial(104, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingConfig cfg;
  cfg.finalize = StreamingConfig::Finalize::kProvisional;
  StreamingPipeline pipeline(system, cfg);

  const StreamOutcome whole =
      stream_with_schedule(pipeline, trial, &seg, Rng(13), 0, 0);
  const StreamOutcome ragged =
      stream_with_schedule(pipeline, trial, &seg, Rng(13), 811, 1283);
  // Checkpoints run on a fixed absolute block grid, so their scores never
  // depend on how the samples arrived.
  EXPECT_EQ(whole.provisional_score, ragged.provisional_score);
  EXPECT_EQ(whole.coarse_score, ragged.coarse_score);
  EXPECT_EQ(whole.blocks, ragged.blocks);
}

// Checkpoint pins: a legitimate and a replay trial streamed in 1024-sample
// pushes with the rule off and a kProvisional finalize, at the scalar SIMD
// level. Both evidence channels' score bits, the block count and both frame
// counts were recorded while each checkpoint still ran its own hand-copied
// capture, feature and correlate calls; a change to what a checkpoint
// captures, extracts or correlates fails here by trial name.
TEST(StreamingPipelineTest, CheckpointBitsArePinned) {
  const struct {
    const char* name;
    std::uint64_t seed;
    bool attack;
    std::uint64_t provisional_bits;
    std::uint64_t coarse_bits;
    std::size_t blocks;
    std::size_t paired_frames;
    std::size_t coarse_frames;
  } kPinned[] = {
      {"legitimate", 104, false, 0x3fde3b9eaae06802ull, 0x3fe6fde6a355231aull,
       7, 25, 41},
      {"replay", 105, true, 0x3f966c942d94df2eull, 0x3fe520da2b5c9ca3ull, 8,
       31, 48},
  };
  const dsp::simd::Level prev = dsp::simd::active_level();
  ASSERT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
  DefenseSystem system((DefenseConfig()));
  StreamingConfig cfg;
  cfg.finalize = StreamingConfig::Finalize::kProvisional;
  StreamingPipeline pipeline(system, cfg);
  for (const auto& p : kPinned) {
    const auto trial = make_trial(p.seed, p.attack);
    OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
    const StreamOutcome out =
        stream_with_schedule(pipeline, trial, &seg, Rng(61), 1024, 1024);
    const StreamStatus st = pipeline.status();
    const auto provisional = std::bit_cast<std::uint64_t>(out.provisional_score);
    const auto coarse = std::bit_cast<std::uint64_t>(out.coarse_score);
    EXPECT_EQ(provisional, p.provisional_bits)
        << p.name << ": provisional " << out.provisional_score << " has bits 0x"
        << std::hex << provisional;
    EXPECT_EQ(coarse, p.coarse_bits)
        << p.name << ": coarse " << out.coarse_score << " has bits 0x"
        << std::hex << coarse;
    EXPECT_EQ(st.blocks, p.blocks) << p.name;
    EXPECT_EQ(st.paired_frames, p.paired_frames) << p.name;
    EXPECT_EQ(st.coarse_frames, p.coarse_frames) << p.name;
  }
  dsp::simd::set_level(prev);
}

// --- stopping rule --------------------------------------------------------

StreamingConfig rule_config(const ConfidenceModel* model) {
  StreamingConfig cfg;
  cfg.stop.enabled = true;
  cfg.stop.confidence = model;
  cfg.stop.coarse_confidence = model;
  cfg.finalize = StreamingConfig::Finalize::kProvisional;
  return cfg;
}

TEST(StoppingRuleTest, ConfidentAttackEvidenceExitsEarly) {
  const auto trial = make_trial(105, true);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence always_attack(1.0);
  StreamingPipeline pipeline(system, rule_config(&always_attack));

  pipeline.begin(trial.va.sample_rate(), &seg, Rng(31));
  StreamStatus st;
  std::size_t pushed = 0;
  for (; pushed < trial.va.size(); pushed += 1024) {
    st = pipeline.push(frame_at(trial.va, pushed, 1024),
                       frame_at(trial.wearable, pushed, 1024));
    if (st.verdict != StreamVerdict::kPending) break;
  }
  EXPECT_EQ(st.verdict, StreamVerdict::kAttackEarly);
  EXPECT_LT(pushed, trial.va.size());  // exited before the stream ended
  EXPECT_GE(st.posterior_attack, pipeline.config().stop.attack_confidence);

  const StreamOutcome out = pipeline.finalize();
  EXPECT_TRUE(out.early_exit);
  EXPECT_EQ(out.verdict, StreamVerdict::kAttackEarly);
  // An early exit reports the provisional evidence, not a batch score.
  EXPECT_EQ(out.outcome.score, out.provisional_score);
}

TEST(StoppingRuleTest, ConfidentLegitEvidenceExitsAcceptSide) {
  const auto trial = make_trial(106, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence never_attack(0.0);
  StreamingPipeline pipeline(system, rule_config(&never_attack));

  const StreamOutcome out =
      stream_with_schedule(pipeline, trial, &seg, Rng(33), 1024, 1024);
  EXPECT_EQ(out.verdict, StreamVerdict::kAcceptEarly);
  EXPECT_TRUE(out.early_exit);
}

TEST(StoppingRuleTest, DisabledRuleNeverExits) {
  const auto trial = make_trial(107, true);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence always_attack(1.0);
  StreamingConfig cfg = rule_config(&always_attack);
  cfg.stop.enabled = false;
  StreamingPipeline pipeline(system, cfg);

  const StreamOutcome out =
      stream_with_schedule(pipeline, trial, &seg, Rng(35), 1024, 1024);
  EXPECT_EQ(out.verdict, StreamVerdict::kCompleted);
  EXPECT_FALSE(out.early_exit);
  // The posterior is still tracked for status consumers.
  EXPECT_GE(out.posterior_attack, 0.9);
}

TEST(StoppingRuleTest, MinStreamGateBlocksInstantVerdicts) {
  // With both thresholds at 0.5, a constant model puts every evaluated
  // boundary on its side, so only the evidence gate (0.25 s of the VA
  // timeline and 8 frames) holds an exit back. Block 1 carries 3 coarse
  // frames and is gated; block 2 is the first boundary past both gates.
  DefenseSystem system((DefenseConfig()));
  const FixedConfidence always_attack(1.0);
  const FixedConfidence never_attack(0.0);
  const ConfidenceModel* const models[] = {&always_attack, &never_attack};
  std::size_t gated_block_one = 0;
  for (std::uint64_t seed = 105; seed <= 112; ++seed) {
    for (const bool attack : {false, true}) {
      const auto trial = make_trial(seed, attack);
      OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
      for (const ConfidenceModel* model : models) {
        const bool attack_side = model == &always_attack;
        StreamingConfig cfg = rule_config(model);
        cfg.stop.attack_confidence = 0.5;
        cfg.stop.accept_confidence = 0.5;
        StreamingPipeline pipeline(system, cfg);
        pipeline.begin(trial.va.sample_rate(), &seg, Rng(37));
        StreamStatus st;
        for (std::size_t off = 0;
             off < trial.va.size() && st.verdict == StreamVerdict::kPending;
             off += 1024) {
          st = pipeline.push(frame_at(trial.va, off, 1024),
                             frame_at(trial.wearable, off, 1024));
          if (st.blocks == 1) {
            ++gated_block_one;
            EXPECT_EQ(st.verdict, StreamVerdict::kPending) << seed;
            EXPECT_EQ(st.coarse_frames, 3u) << seed;
            EXPECT_EQ(st.posterior_attack > 0.5, attack_side) << seed;
          }
        }
        EXPECT_EQ(st.verdict, attack_side ? StreamVerdict::kAttackEarly
                                          : StreamVerdict::kAcceptEarly)
            << seed;
        EXPECT_EQ(st.blocks, 2u) << seed;
        EXPECT_GE(st.coarse_frames, 8u) << seed;
      }
    }
  }
  // Most of these streams release block 1 in a push of its own (the rest
  // release blocks 1 and 2 together when the sync warm-up completes).
  EXPECT_GT(gated_block_one, 0u);
}

TEST(StreamingPipelineTest, FailsClosedOnNonFiniteSamples) {
  const auto trial = make_trial(109, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  pipeline.begin(trial.va.sample_rate(), &seg, Rng(41));
  pipeline.push(trial.va.samples().first(4096),
                trial.wearable.samples().first(4096));
  const double bad[3] = {0.1, std::numeric_limits<double>::quiet_NaN(), 0.2};
  const StreamStatus st = pipeline.push(bad, {});
  EXPECT_EQ(st.verdict, StreamVerdict::kFailedClosed);

  const StreamOutcome out = pipeline.finalize();
  EXPECT_EQ(out.verdict, StreamVerdict::kFailedClosed);
  EXPECT_FALSE(out.outcome.ok());
  EXPECT_EQ(out.outcome.status, ScoreStatus::kIndeterminate);
}

// --- instrumentation ------------------------------------------------------

TEST(StreamingPipelineTest, SecondFinalizeIsIdempotent) {
  const auto trial = make_trial(111, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  PipelineTrace trace;
  pipeline.begin(trial.va.sample_rate(), &seg, Rng(51), &trace);
  pipeline.push(trial.va.samples(), trial.wearable.samples());
  const StreamOutcome first = pipeline.finalize();
  ASSERT_TRUE(first.outcome.ok());
  const std::size_t stages_after_first = trace.stages.size();

  // A second finalize() before the next begin() must return the cached
  // outcome: no batch re-score, no new trace records — so a caller that
  // add()s the trace into PipelineStats counts this trial exactly once.
  const StreamOutcome second = pipeline.finalize();
  EXPECT_EQ(second.outcome.score, first.outcome.score);
  EXPECT_EQ(second.outcome.status, first.outcome.status);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(second.provisional_score, first.provisional_score);
  EXPECT_EQ(second.pushed_va_samples, first.pushed_va_samples);
  EXPECT_EQ(trace.stages.size(), stages_after_first);

  PipelineStats stats;
  stats.add(trace);
  EXPECT_EQ(stats.commands, 1u);

  // The pipeline stays reusable after the repeated finalize.
  pipeline.begin(trial.va.sample_rate(), &seg, Rng(51));
  pipeline.push(trial.va.samples(), trial.wearable.samples());
  const StreamOutcome again = pipeline.finalize();
  EXPECT_EQ(again.outcome.score, first.outcome.score);
}

TEST(StreamingPipelineTest, ZeroLengthPushIsNoOp) {
  const auto trial = make_trial(112, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));

  // Reference stream: no empty pushes.
  StreamingPipeline reference(system);
  const StreamOutcome expected =
      stream_with_schedule(reference, trial, &seg, Rng(53), 2048, 2048);
  ASSERT_TRUE(expected.outcome.ok());

  // Same schedule with empty pushes interleaved everywhere: the empties
  // must not advance any buffered, block or checkpoint state.
  StreamingPipeline pipeline(system);
  pipeline.begin(trial.va.sample_rate(), &seg, Rng(53));
  pipeline.push({}, {});  // before any data
  std::size_t off = 0;
  while (off < trial.va.size() || off < trial.wearable.size()) {
    const StreamStatus after_real = pipeline.push(
        frame_at(trial.va, off, 2048), frame_at(trial.wearable, off, 2048));
    const StreamStatus after_empty = pipeline.push({}, {});
    EXPECT_EQ(after_empty.blocks, after_real.blocks);
    EXPECT_EQ(after_empty.paired_frames, after_real.paired_frames);
    EXPECT_EQ(after_empty.coarse_frames, after_real.coarse_frames);
    EXPECT_EQ(after_empty.provisional_score, after_real.provisional_score);
    off += 2048;
  }
  const StreamOutcome out = pipeline.finalize();
  ASSERT_TRUE(out.outcome.ok());
  EXPECT_EQ(out.outcome.score, expected.outcome.score);
  EXPECT_EQ(out.provisional_score, expected.provisional_score);
  EXPECT_EQ(out.pushed_va_samples, expected.pushed_va_samples);
  EXPECT_EQ(out.blocks, expected.blocks);
}

TEST(StreamingTraceTest, TraceAppendConcatenatesStageRecords) {
  PipelineTrace a;
  a.stages.push_back(StageTrace{"x", 0, 5, 10, 10, 0});
  PipelineTrace b;
  b.stages.push_back(StageTrace{"y", 1, 7, 20, 20, 1});
  b.stages.push_back(StageTrace{"z", 2, 9, 30, 30, 2});
  a.append(b);
  ASSERT_EQ(a.stages.size(), 3u);
  EXPECT_STREQ(a.stages[1].name, "y");
  EXPECT_STREQ(a.stages[2].name, "z");
}

TEST(StreamingTraceTest, StatsSeparateCallsFromTrials) {
  const auto trial = make_trial(110, false);
  OracleSegmenter seg(trial.alignment, eval::reference_sensitive_set());
  DefenseSystem system((DefenseConfig()));
  StreamingPipeline pipeline(system);

  PipelineStats stats;
  for (int run = 0; run < 2; ++run) {
    PipelineTrace trace;
    pipeline.begin(trial.va.sample_rate(), &seg, Rng(43), &trace);
    for (std::size_t off = 0; off < trial.va.size(); off += 2048) {
      pipeline.push(frame_at(trial.va, off, 2048),
                    frame_at(trial.wearable, off, 2048));
    }
    pipeline.finalize();
    stats.add(trace);
  }

  EXPECT_EQ(stats.commands, 2u);
  const PipelineStats::StageStats* ingest = nullptr;
  for (const auto& s : stats.stages) {
    if (s.name == "stream_ingest") ingest = &s;
  }
  ASSERT_NE(ingest, nullptr);
  // The ingest stage ran once per push — many calls, but exactly one trial
  // per add()ed trace. Before the calls/trials split, per-stage means were
  // diluted by the call count.
  EXPECT_EQ(ingest->trials, 2u);
  EXPECT_GT(ingest->calls, ingest->trials);
  EXPECT_GT(ingest->mean_calls_per_trial(), 1.0);
}

}  // namespace
}  // namespace vibguard::core
