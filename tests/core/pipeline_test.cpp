#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "attacks/attack.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dsp/simd.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard::core {
namespace {

eval::TrialRecordings legit_trial(std::uint64_t seed) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
  Rng rng(seed + 1);
  const auto spk = speech::sample_speaker(speech::Sex::kMale, rng);
  return sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), spk);
}

eval::TrialRecordings attack_trial(std::uint64_t seed) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
  Rng rng(seed + 1);
  const auto victim = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto adv = speech::sample_speaker(speech::Sex::kFemale, rng);
  return sim.attack_trial(attacks::AttackType::kReplay,
                          speech::command_by_text("turn on the lights"),
                          victim, adv);
}

TEST(PipelineTest, ModeNames) {
  EXPECT_STREQ(mode_name(DefenseMode::kFull), "full");
  EXPECT_STREQ(mode_name(DefenseMode::kVibrationBaseline),
               "vibration_baseline");
  EXPECT_STREQ(mode_name(DefenseMode::kAudioBaseline), "audio_baseline");
}

TEST(PipelineTest, FullModeRequiresSegmenter) {
  DefenseConfig cfg;
  cfg.mode = DefenseMode::kFull;
  DefenseSystem sys(cfg);
  const auto t = legit_trial(1);
  Rng rng(2);
  EXPECT_THROW(sys.score(t.va, t.wearable, nullptr, rng),
               vibguard::InvalidArgument);
}

TEST(PipelineTest, LegitimateCommandScoresHigh) {
  DefenseConfig cfg;
  DefenseSystem sys(cfg);
  const auto t = legit_trial(3);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(4);
  PipelineTrace trace;
  const double s = sys.score(t.va, t.wearable, &seg, rng, &trace);
  EXPECT_GT(s, 0.6);
  EXPECT_GT(trace.num_ranges, 0u);
  EXPECT_GT(trace.segment_seconds, 0.0);
}

TEST(PipelineTest, AttackScoresLowAndIsDetected) {
  DefenseConfig cfg;
  DefenseSystem sys(cfg);
  const auto t = attack_trial(5);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(6);
  const auto result = sys.detect(t.va, t.wearable, &seg, rng);
  EXPECT_LT(result.score, 0.6);
}

TEST(PipelineTest, SyncEstimateMatchesInjectedDelay) {
  DefenseConfig cfg;
  DefenseSystem sys(cfg);
  const auto t = legit_trial(7);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(8);
  PipelineTrace trace;
  sys.score(t.va, t.wearable, &seg, rng, &trace);
  EXPECT_NEAR(trace.estimated_delay_s, t.true_delay_s, 0.01);
}

TEST(PipelineTest, BaselineModesIgnoreSegmenter) {
  for (DefenseMode mode :
       {DefenseMode::kVibrationBaseline, DefenseMode::kAudioBaseline}) {
    DefenseConfig cfg;
    cfg.mode = mode;
    DefenseSystem sys(cfg);
    const auto t = legit_trial(9);
    Rng rng(10);
    EXPECT_NO_THROW(sys.score(t.va, t.wearable, nullptr, rng));
  }
}

TEST(PipelineTest, SeparationExistsInVibrationModes) {
  // Average over a few trials: legit must outscore attack in both vibration
  // modes (the core claim of the system).
  for (DefenseMode mode : {DefenseMode::kFull,
                           DefenseMode::kVibrationBaseline}) {
    DefenseConfig cfg;
    cfg.mode = mode;
    DefenseSystem sys(cfg);
    double legit_acc = 0.0, attack_acc = 0.0;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto lt = legit_trial(20 + i);
      const auto at = attack_trial(30 + i);
      OracleSegmenter seg_l(lt.alignment, eval::reference_sensitive_set());
      OracleSegmenter seg_a(at.alignment, eval::reference_sensitive_set());
      Rng r1(40 + i), r2(50 + i);
      legit_acc += sys.score(lt.va, lt.wearable, &seg_l, r1);
      attack_acc += sys.score(at.va, at.wearable, &seg_a, r2);
    }
    EXPECT_GT(legit_acc, attack_acc + 0.5) << mode_name(mode);
  }
}

TEST(PipelineTest, ShortSegmentsFallBackToWholeCommand) {
  DefenseConfig cfg;
  cfg.min_segment_seconds = 100.0;  // force fallback
  DefenseSystem sys(cfg);
  const auto t = legit_trial(11);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(12);
  PipelineTrace trace;
  sys.score(t.va, t.wearable, &seg, rng, &trace);
  // Fallback scores the full synchronized command.
  EXPECT_GT(trace.segment_seconds, 0.8);
}

TEST(PipelineTest, RejectsEmptyRecordings) {
  DefenseConfig cfg;
  cfg.mode = DefenseMode::kVibrationBaseline;
  DefenseSystem sys(cfg);
  Rng rng(13);
  EXPECT_THROW(
      sys.score(Signal({}, 16000.0), Signal({1.0}, 16000.0), nullptr, rng),
      vibguard::InvalidArgument);
}

TEST(PipelineTest, WorkspaceReuseGivesBitIdenticalScores) {
  DefenseSystem sys{DefenseConfig{}};
  const auto t = legit_trial(16);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng r1(17);
  const double fresh = sys.score(t.va, t.wearable, &seg, r1);
  Workspace workspace;
  for (int pass = 0; pass < 3; ++pass) {
    Rng r(17);
    EXPECT_EQ(sys.score(t.va, t.wearable, &seg, r, workspace), fresh);
  }
}

TEST(PipelineTest, ScoreBatchMatchesSingleShotAtEveryThreadCount) {
  DefenseSystem sys{DefenseConfig{}};
  std::vector<eval::TrialRecordings> trials;
  std::vector<OracleSegmenter> segmenters;
  for (std::uint64_t i = 0; i < 4; ++i) {
    trials.push_back(i % 2 == 0 ? legit_trial(80 + i) : attack_trial(80 + i));
    segmenters.emplace_back(trials.back().alignment,
                            eval::reference_sensitive_set());
  }
  std::vector<ScoreRequest> requests;
  std::vector<double> expected;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    requests.push_back(ScoreRequest{&trials[i].va, &trials[i].wearable,
                                    &segmenters[i], Rng(90 + i)});
    Rng rng(90 + i);
    expected.push_back(
        sys.score(trials[i].va, trials[i].wearable, &segmenters[i], rng));
  }

  // Serial batch through one workspace.
  Workspace workspace;
  std::vector<ScoreOutcome> outcomes(requests.size());
  sys.score_batch(requests, outcomes, workspace);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "serial trial " << i;
    EXPECT_DOUBLE_EQ(outcomes[i].score, expected[i]) << "serial trial " << i;
  }

  // Parallel batch with one warm workspace per worker, at several thread
  // counts: scheduling must never change a score.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<Workspace> workspaces(
        std::max<std::size_t>(1, pool.num_threads()));
    std::vector<ScoreOutcome> parallel(requests.size());
    sys.score_batch(requests, parallel, pool, workspaces);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(parallel[i].ok())
          << "trial " << i << " with " << threads << " threads";
      EXPECT_DOUBLE_EQ(parallel[i].score, expected[i])
          << "trial " << i << " with " << threads << " threads";
    }
  }
}

TEST(PipelineTest, ScoreBatchCollectsStats) {
  DefenseSystem sys{DefenseConfig{}};
  const auto t = legit_trial(18);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  std::vector<ScoreRequest> requests(
      3, ScoreRequest{&t.va, &t.wearable, &seg, Rng(19)});
  Workspace workspace;
  std::vector<ScoreOutcome> outcomes(requests.size());
  PipelineStats stats;
  sys.score_batch(requests, outcomes, workspace, nullptr, &stats);
  EXPECT_EQ(stats.commands, 3u);
  ASSERT_FALSE(stats.stages.empty());
  EXPECT_EQ(stats.stages.front().calls, 3u);
  for (const ScoreOutcome& o : outcomes) ASSERT_TRUE(o.ok());
  // Identical requests (same rng seed) must score identically.
  EXPECT_DOUBLE_EQ(outcomes[0].score, outcomes[1].score);
  EXPECT_DOUBLE_EQ(outcomes[1].score, outcomes[2].score);
}

TEST(PipelineTest, TraceExposesFeatures) {
  DefenseConfig cfg;
  cfg.mode = DefenseMode::kVibrationBaseline;
  DefenseSystem sys(cfg);
  const auto t = legit_trial(14);
  Rng rng(15);
  PipelineTrace trace;
  sys.score(t.va, t.wearable, nullptr, rng, &trace);
  EXPECT_GT(trace.features_va.frames(), 0u);
  EXPECT_EQ(trace.features_va.bins(), trace.features_wearable.bins());
}

void expect_same_bits(const Signal& got, const Signal& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "sample " << i;
  }
}

// Both generators at the same point of their streams, a pending
// Box–Muller spare included.
void expect_same_stream(Rng got, Rng want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gaussian()),
            std::bit_cast<std::uint64_t>(want.gaussian()));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got(), want());
}

TEST(PipelineTest, SplitCaptureMatchesSerialCapture) {
  // The stage draws both channels, then realizes the wearable channel on
  // the workspace's companion (inline on a pool worker). Its captures and
  // the rng it leaves must equal two serial captures, each drawn then
  // realized, VA first.
  const auto t = attack_trial(95);
  namespace simd = dsp::simd;
  const simd::Level prev = simd::active_level();
  for (const simd::Level level :
       {simd::Level::kScalar, simd::detect_level()}) {
    ASSERT_TRUE(simd::set_level(level));
    for (const bool moving : {false, true}) {
      SCOPED_TRACE(testing::Message() << simd::level_name(level)
                                      << (moving ? ", walking" : ""));
      DefenseConfig cfg;
      if (moving) cfg.user_activity = sensors::Activity::kWalking;
      const DefenseSystem sys(cfg);
      const device::Wearable& w = sys.wearable();
      Rng serial(96);
      Signal want_va, want_wear;
      dsp::Scratch scratch;
      w.realize_capture(t.va, w.draw_capture(t.va, serial, cfg.user_activity),
                        want_va, scratch);
      w.realize_capture(
          t.wearable, w.draw_capture(t.wearable, serial, cfg.user_activity),
          want_wear, scratch);

      const auto capture = [&](Workspace& ws) {
        Rng rng(96);
        PipelineContext ctx;
        ctx.config = &sys.config();
        ctx.wearable = &sys.wearable();
        ctx.rng = &rng;
        ctx.ws = &ws;
        ctx.cur_va = &t.va;
        ctx.cur_wear = &t.wearable;
        VibrationCaptureStage::instance().run(ctx);
        return rng;
      };
      Workspace ws;
      for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
        const Rng after = capture(ws);
        expect_same_bits(ws.vib_va, want_va);
        expect_same_bits(ws.vib_wear, want_wear);
        expect_same_stream(after, serial);
      }

      ThreadPool pool(2);
      Workspace pool_ws;
      Rng pool_after;
      bool on_worker = false;
      pool.parallel_for(2, [&](std::size_t i) {
        if (i != 0) return;
        on_worker = ThreadPool::on_worker();
        pool_after = capture(pool_ws);
      });
      EXPECT_TRUE(on_worker);
      expect_same_bits(pool_ws.vib_va, want_va);
      expect_same_bits(pool_ws.vib_wear, want_wear);
      expect_same_stream(pool_after, serial);
    }
  }
  simd::set_level(prev);
}

TEST(PipelineTest, ThrowingCaptureEndsAsVibCaptureError) {
  // A negative noise floor makes both channels throw as they realize: the
  // VA channel on this thread, the wearable channel on the companion.
  DefenseConfig bad;
  bad.wearable.accelerometer.base_noise_rms = -1.0;
  const DefenseSystem broken(bad);
  const DefenseSystem healthy{DefenseConfig{}};
  const auto t = legit_trial(97);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Workspace workspace;
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(98);
    const ScoreOutcome outcome =
        broken.try_score(t.va, t.wearable, &seg, rng, workspace);
    EXPECT_EQ(outcome.status, ScoreStatus::kError);
    EXPECT_STREQ(outcome.reason, "vib_capture");
    EXPECT_FALSE(outcome.error.empty());
  }
  // The workspace, companion included, then scores as a fresh one does.
  Rng r1(99), r2(99);
  EXPECT_EQ(healthy.score(t.va, t.wearable, &seg, r1, workspace),
            healthy.score(t.va, t.wearable, &seg, r2));
}

// Threads that have run tag_thread() and not yet exited. A thread's
// thread_local destructors finish before its join returns, so the count
// is exact right after a join.
std::atomic<int> tagged_threads{0};

struct ThreadTag {
  ThreadTag() { ++tagged_threads; }
  ~ThreadTag() { --tagged_threads; }
};

void tag_thread() { thread_local const ThreadTag tag; }

TEST(PipelineTest, WorkspaceOwnsItsCompanionThread) {
  DefenseSystem sys{DefenseConfig{}};
  const auto t = legit_trial(100);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng r0(101);
  const double want = sys.score(t.va, t.wearable, &seg, r0);
  auto quiet = [] {};
  auto tag = [] { tag_thread(); };
  {
    Workspace ws;
    Rng r1(101);
    EXPECT_EQ(sys.score(t.va, t.wearable, &seg, r1, ws), want);
    ws.companion.run(quiet, tag);
    // Moving a workspace moves its companion; the moved-from workspace
    // starts a new one, and still scores the same.
    Workspace moved = std::move(ws);
    Rng r2(101), r3(101);
    EXPECT_EQ(sys.score(t.va, t.wearable, &seg, r2, moved), want);
    EXPECT_EQ(sys.score(t.va, t.wearable, &seg, r3, ws), want);
    ws.companion.run(quiet, tag);
    EXPECT_EQ(tagged_threads, 2);
  }
  EXPECT_EQ(tagged_threads, 0);  // destruction joined both companions
}

}  // namespace
}  // namespace vibguard::core
