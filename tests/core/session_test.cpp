#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"
#include "faults/fault.hpp"

namespace vibguard::core {
namespace {

/// Segmenter that fails its first `failures` calls, then delegates — the
/// deterministic stand-in for a transiently broken pipeline dependency.
class FlakySegmenter : public Segmenter {
 public:
  FlakySegmenter(const Segmenter& inner, int failures)
      : inner_(inner), remaining_(failures) {}

  std::vector<SampleRange> segment(const Signal& audio,
                                   std::size_t timeline_offset) const override {
    if (remaining_ > 0) {
      --remaining_;
      throw std::runtime_error("flaky segmenter outage");
    }
    return inner_.segment(audio, timeline_offset);
  }

 private:
  const Segmenter& inner_;
  mutable int remaining_;
};

struct Fixture {
  eval::ScenarioSimulator sim{eval::ScenarioConfig{}, 9};
  speech::SpeakerProfile user;
  speech::SpeakerProfile adversary;

  Fixture() {
    Rng rng(10);
    user = speech::sample_speaker(speech::Sex::kMale, rng);
    adversary = speech::sample_speaker(speech::Sex::kFemale, rng);
  }
};

TEST(SessionTest, VerdictNames) {
  EXPECT_STREQ(verdict_name(Verdict::kAccepted), "accepted");
  EXPECT_STREQ(verdict_name(Verdict::kAttackDetected), "attack_detected");
  EXPECT_STREQ(verdict_name(Verdict::kWearableAbsent), "wearable_absent");
  EXPECT_STREQ(verdict_name(Verdict::kIndeterminate), "indeterminate");
}

TEST(SessionTest, AcceptsLegitimateCommand) {
  Fixture fx;
  DefenseSession session;
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), fx.user);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(1);
  const auto event = session.process("lights on", t.va, t.wearable, &seg, rng);
  EXPECT_EQ(event.verdict, Verdict::kAccepted);
  EXPECT_GT(event.score, 0.5);
  EXPECT_EQ(session.stats().accepted, 1u);
}

TEST(SessionTest, BlocksThruBarrierAttack) {
  Fixture fx;
  DefenseSession session;
  // Hidden-voice attacks are the most reliably detected class; replay
  // borderline cases are covered statistically by the eval tests.
  const auto t = fx.sim.attack_trial(
      attacks::AttackType::kHiddenVoice,
      speech::command_by_text("unlock the front door"), fx.user,
      fx.adversary);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(2);
  const auto event = session.process("unlock", t.va, t.wearable, &seg, rng);
  EXPECT_EQ(event.verdict, Verdict::kAttackDetected);
  EXPECT_EQ(session.stats().attacks_detected, 1u);
}

TEST(SessionTest, RejectsWhenWearableAbsent) {
  Fixture fx;
  DefenseSession session;
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("stop"), fx.user);
  Rng rng(3);
  const auto event =
      session.process("stop", t.va, std::nullopt, nullptr, rng);
  EXPECT_EQ(event.verdict, Verdict::kWearableAbsent);
  EXPECT_TRUE(std::isnan(event.score));
  EXPECT_EQ(session.stats().wearable_absent, 1u);
  EXPECT_EQ(session.stats().accepted, 0u);
}

TEST(SessionTest, AuditLogAccumulatesInOrder) {
  Fixture fx;
  DefenseSession session;
  Rng rng(4);
  const auto t1 = fx.sim.legitimate_trial(
      speech::command_by_text("stop"), fx.user);
  OracleSegmenter seg1(t1.alignment, eval::reference_sensitive_set());
  session.process("first", t1.va, t1.wearable, &seg1, rng);
  session.process("second", t1.va, std::nullopt, nullptr, rng);
  ASSERT_EQ(session.log().size(), 2u);
  EXPECT_EQ(session.log()[0].index, 0u);
  EXPECT_EQ(session.log()[0].label, "first");
  EXPECT_EQ(session.log()[1].label, "second");
  EXPECT_EQ(session.stats().processed, 2u);
}

TEST(SessionTest, ResetClearsState) {
  Fixture fx;
  DefenseSession session;
  Rng rng(5);
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("stop"), fx.user);
  session.process("x", t.va, std::nullopt, nullptr, rng);
  session.reset();
  EXPECT_TRUE(session.log().empty());
  EXPECT_EQ(session.stats().processed, 0u);
}

TEST(SessionTest, PipelineStatsTrackScoredCommandsOnly) {
  Fixture fx;
  DefenseSession session;
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), fx.user);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng r1(6), r2(7);
  session.process("scored", t.va, t.wearable, &seg, r1);
  session.process("absent", t.va, std::nullopt, nullptr, r2);
  // Wearable-absent commands are rejected without running the pipeline.
  EXPECT_EQ(session.pipeline_stats().commands, 1u);
  EXPECT_FALSE(session.pipeline_stats().stages.empty());
  session.reset();
  EXPECT_EQ(session.pipeline_stats().commands, 0u);
  EXPECT_TRUE(session.pipeline_stats().stages.empty());
}

TEST(SessionTest, ProcessBatchMatchesSequentialProcess) {
  Fixture fx;
  const auto legit = fx.sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), fx.user);
  const auto attack = fx.sim.attack_trial(
      attacks::AttackType::kHiddenVoice,
      speech::command_by_text("unlock the front door"), fx.user,
      fx.adversary);
  OracleSegmenter seg_l(legit.alignment, eval::reference_sensitive_set());
  OracleSegmenter seg_a(attack.alignment, eval::reference_sensitive_set());

  std::vector<SessionRequest> requests;
  requests.push_back(
      SessionRequest{"legit", &legit.va, &legit.wearable, &seg_l, Rng(21)});
  requests.push_back(
      SessionRequest{"absent", &legit.va, nullptr, nullptr, Rng(22)});
  requests.push_back(
      SessionRequest{"attack", &attack.va, &attack.wearable, &seg_a,
                     Rng(23)});

  DefenseSession batched;
  const auto events = batched.process_batch(requests);

  DefenseSession sequential;
  Rng r1(21), r2(22), r3(23);
  const auto e1 =
      sequential.process("legit", legit.va, legit.wearable, &seg_l, r1);
  const auto e2 =
      sequential.process("absent", legit.va, std::nullopt, nullptr, r2);
  const auto e3 =
      sequential.process("attack", attack.va, attack.wearable, &seg_a, r3);

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].verdict, e1.verdict);
  EXPECT_DOUBLE_EQ(events[0].score, e1.score);
  EXPECT_EQ(events[1].verdict, e2.verdict);
  EXPECT_TRUE(std::isnan(events[1].score));
  EXPECT_EQ(events[2].verdict, e3.verdict);
  EXPECT_DOUBLE_EQ(events[2].score, e3.score);

  // Audit log, running stats and pipeline aggregates match the sequential
  // path entry for entry.
  ASSERT_EQ(batched.log().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batched.log()[i].index, i);
    EXPECT_EQ(batched.log()[i].label, sequential.log()[i].label);
    EXPECT_EQ(batched.log()[i].verdict, sequential.log()[i].verdict);
  }
  EXPECT_EQ(batched.stats().processed, 3u);
  EXPECT_EQ(batched.stats().wearable_absent, 1u);
  EXPECT_EQ(batched.stats().accepted, sequential.stats().accepted);
  EXPECT_EQ(batched.stats().attacks_detected,
            sequential.stats().attacks_detected);
  EXPECT_EQ(batched.pipeline_stats().commands,
            sequential.pipeline_stats().commands);
}

TEST(SessionTest, IndeterminateVerdictOnUnscoreableCommand) {
  Fixture fx;
  DefenseSession session;
  EXPECT_EQ(session.policy().max_retries, 1u);
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("stop"), fx.user);
  // A dead wearable channel is unscoreable on every attempt: the session
  // retries per policy, then settles on kIndeterminate (re-request the
  // command), never on a hostile verdict.
  const Signal dead = Signal::zeros(t.wearable.size(),
                                    t.wearable.sample_rate());
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  Rng rng(31);
  const auto event = session.process("dead wearable", t.va, dead, &seg, rng);
  EXPECT_EQ(event.verdict, Verdict::kIndeterminate);
  EXPECT_TRUE(std::isnan(event.score));
  EXPECT_EQ(event.note, "low_signal");
  EXPECT_EQ(event.attempts, 2u);  // 1 attempt + 1 retry
  EXPECT_EQ(session.stats().indeterminate, 1u);
  EXPECT_EQ(session.stats().retries, 1u);
  EXPECT_EQ(session.stats().accepted, 0u);
  EXPECT_EQ(session.stats().attacks_detected, 0u);
}

TEST(SessionTest, RetryPolicyControlsAttemptCount) {
  Fixture fx;
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("stop"), fx.user);
  const Signal dead = Signal::zeros(t.wearable.size(),
                                    t.wearable.sample_rate());
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  for (std::size_t retries : {std::size_t{0}, std::size_t{3}}) {
    DefenseSession session(DefenseConfig{}, SessionPolicy{retries});
    Rng rng(32);
    const auto event = session.process("dead", t.va, dead, &seg, rng);
    EXPECT_EQ(event.verdict, Verdict::kIndeterminate);
    EXPECT_EQ(event.attempts, retries + 1) << retries << " retries";
    EXPECT_EQ(session.stats().retries, retries);
  }
}

TEST(SessionTest, RetryRecoversFromTransientStageError) {
  Fixture fx;
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), fx.user);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  FlakySegmenter flaky(seg, /*failures=*/1);
  DefenseSession session(DefenseConfig{}, SessionPolicy{.max_retries = 2});
  Rng rng(51);
  const auto event = session.process("transient", t.va, t.wearable, &flaky,
                                     rng);
  EXPECT_EQ(event.verdict, Verdict::kAccepted);
  EXPECT_EQ(event.attempts, 2u);  // failed once, recovered on the retry
  EXPECT_EQ(session.stats().retries, 1u);
  EXPECT_EQ(session.stats().indeterminate, 0u);
}

TEST(SessionTest, RetriesExhaustOnPersistentFault) {
  Fixture fx;
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), fx.user);
  OracleSegmenter seg(t.alignment, eval::reference_sensitive_set());
  // A persistently corrupted capture (fault injector at full severity)
  // fails every attempt: the session burns all retries, then settles on
  // kIndeterminate rather than a hostile verdict.
  Signal corrupted = t.wearable;
  Rng fault_rng(52);
  faults::severity_plan(faults::FaultKind::kNonFinite, 1.0)
      .apply(corrupted, fault_rng);
  DefenseSession session(DefenseConfig{}, SessionPolicy{.max_retries = 3});
  Rng rng(53);
  const auto event = session.process("corrupted", t.va, corrupted, &seg, rng);
  EXPECT_EQ(event.verdict, Verdict::kIndeterminate);
  EXPECT_EQ(event.attempts, 4u);  // 1 attempt + 3 retries
  EXPECT_EQ(session.stats().retries, 3u);
  EXPECT_TRUE(std::isnan(event.score));
}

TEST(SessionTest, ErrorNoteNamesFailingStage) {
  Fixture fx;
  DefenseSession session;  // kFull mode needs a segmenter
  const auto t = fx.sim.legitimate_trial(
      speech::command_by_text("stop"), fx.user);
  Rng rng(33);
  const auto event =
      session.process("no segmenter", t.va, t.wearable, nullptr, rng);
  EXPECT_EQ(event.verdict, Verdict::kIndeterminate);
  EXPECT_TRUE(std::isnan(event.score));
  EXPECT_NE(event.note.find("error at stage precheck"), std::string::npos)
      << event.note;
  EXPECT_EQ(session.stats().indeterminate, 1u);
}

TEST(SessionTest, BatchMatchesSequentialWithIndeterminateRequests) {
  Fixture fx;
  const auto good = fx.sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), fx.user);
  OracleSegmenter seg(good.alignment, eval::reference_sensitive_set());
  const Signal dead = Signal::zeros(good.wearable.size(),
                                    good.wearable.sample_rate());

  std::vector<SessionRequest> requests;
  requests.push_back(
      SessionRequest{"good", &good.va, &good.wearable, &seg, Rng(41)});
  requests.push_back(
      SessionRequest{"dead", &good.va, &dead, &seg, Rng(42)});
  requests.push_back(
      SessionRequest{"good again", &good.va, &good.wearable, &seg, Rng(43)});

  DefenseSession batched;
  const auto events = batched.process_batch(requests);

  DefenseSession sequential;
  Rng r1(41), r2(42), r3(43);
  const auto e1 =
      sequential.process("good", good.va, good.wearable, &seg, r1);
  const auto e2 = sequential.process("dead", good.va, dead, &seg, r2);
  const auto e3 =
      sequential.process("good again", good.va, good.wearable, &seg, r3);

  ASSERT_EQ(events.size(), 3u);
  const std::vector<SessionEvent> expected = {e1, e2, e3};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].verdict, expected[i].verdict) << "event " << i;
    EXPECT_EQ(events[i].note, expected[i].note) << "event " << i;
    EXPECT_EQ(events[i].attempts, expected[i].attempts) << "event " << i;
    if (std::isnan(expected[i].score)) {
      EXPECT_TRUE(std::isnan(events[i].score)) << "event " << i;
    } else {
      EXPECT_DOUBLE_EQ(events[i].score, expected[i].score) << "event " << i;
    }
  }
  EXPECT_EQ(events[1].verdict, Verdict::kIndeterminate);
  EXPECT_EQ(batched.stats().indeterminate, sequential.stats().indeterminate);
  EXPECT_EQ(batched.stats().retries, sequential.stats().retries);
  EXPECT_EQ(batched.stats().accepted, sequential.stats().accepted);
}

TEST(SessionTest, ProcessBatchRequiresVaSignal) {
  DefenseSession session;
  std::vector<SessionRequest> requests;
  requests.push_back(SessionRequest{"bad", nullptr, nullptr, nullptr, Rng(1)});
  EXPECT_THROW(session.process_batch(requests), vibguard::InvalidArgument);
}

}  // namespace
}  // namespace vibguard::core
