// Cross-feature integration: the newer subsystems (WAV I/O, session,
// ambient noise) working together with the core pipeline, parameterized
// over attack types.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "acoustics/ambient.hpp"
#include "common/wav.hpp"
#include "core/session.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard {
namespace {

class AttackSessionTest
    : public ::testing::TestWithParam<attacks::AttackType> {};

TEST_P(AttackSessionTest, SessionScoresAttackBelowTypicalLegit) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 31);
  Rng rng(32);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto adversary = speech::sample_speaker(speech::Sex::kFemale, rng);
  core::DefenseSession session;

  const auto& cmd = speech::command_by_text("disarm the security system");
  const auto legit = sim.legitimate_trial(cmd, user);
  const auto attack = sim.attack_trial(GetParam(), cmd, user, adversary);
  core::OracleSegmenter seg_l(legit.alignment,
                              eval::reference_sensitive_set());
  core::OracleSegmenter seg_a(attack.alignment,
                              eval::reference_sensitive_set());
  Rng r1(33), r2(34);
  const auto ok =
      session.process("legit", legit.va, legit.wearable, &seg_l, r1);
  const auto bad =
      session.process("attack", attack.va, attack.wearable, &seg_a, r2);
  EXPECT_GT(ok.score, bad.score) << attacks::attack_name(GetParam());
  EXPECT_EQ(session.stats().processed, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllAttacks, AttackSessionTest,
                         ::testing::ValuesIn(attacks::all_attack_types()));

TEST(CrossFeatureTest, RecordingsSurviveWavRoundTripWithSameVerdict) {
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 41);
  Rng rng(42);
  const auto user = speech::sample_speaker(speech::Sex::kFemale, rng);
  const auto trial = sim.legitimate_trial(
      speech::command_by_text("turn on the lights"), user);

  const auto dir = std::filesystem::temp_directory_path();
  const std::string va_path = (dir / "vg_va.wav").string();
  const std::string wr_path = (dir / "vg_wr.wav").string();
  // Scale into WAV range, round-trip, undo the scaling.
  const double gain = 0.5 / std::max(trial.va.peak(), trial.wearable.peak());
  Signal va = trial.va, wr = trial.wearable;
  va.scale(gain);
  wr.scale(gain);
  write_wav(va_path, va);
  write_wav(wr_path, wr);
  Signal va2 = read_wav(va_path);
  Signal wr2 = read_wav(wr_path);
  va2.scale(1.0 / gain);
  wr2.scale(1.0 / gain);

  core::DefenseSystem system{core::DefenseConfig{}};
  core::OracleSegmenter seg(trial.alignment,
                            eval::reference_sensitive_set());
  Rng r1(43), r2(43);
  const double original = system.score(trial.va, trial.wearable, &seg, r1);
  const double roundtrip = system.score(va2, wr2, &seg, r2);
  EXPECT_NEAR(roundtrip, original, 0.1);
  std::remove(va_path.c_str());
  std::remove(wr_path.c_str());
}

TEST(CrossFeatureTest, BabbleAmbientRoomStillSeparates) {
  eval::ScenarioConfig scfg;
  scfg.room.ambient_kind = acoustics::AmbientKind::kBabble;
  scfg.room.ambient_noise_spl = 55.0;
  eval::ScenarioSimulator sim(scfg, 48);
  Rng rng(49);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto adversary = speech::sample_speaker(speech::Sex::kFemale, rng);
  const auto& cmd = speech::command_by_text("unlock the front door");
  core::DefenseSystem system{core::DefenseConfig{}};
  const auto legit = sim.legitimate_trial(cmd, user);
  const auto attack = sim.attack_trial(attacks::AttackType::kHiddenVoice,
                                       cmd, user, adversary);
  core::OracleSegmenter seg_l(legit.alignment,
                              eval::reference_sensitive_set());
  core::OracleSegmenter seg_a(attack.alignment,
                              eval::reference_sensitive_set());
  Rng r1(50), r2(51);
  EXPECT_GT(system.score(legit.va, legit.wearable, &seg_l, r1),
            system.score(attack.va, attack.wearable, &seg_a, r2));
}

}  // namespace
}  // namespace vibguard
