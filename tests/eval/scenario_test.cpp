#include "eval/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>

#include "common/db.hpp"
#include "dsp/simd.hpp"
#include "dsp/spectral.hpp"

namespace vibguard::eval {
namespace {

speech::SpeakerProfile user_profile() {
  Rng rng(55);
  return speech::sample_speaker(speech::Sex::kFemale, rng);
}

TEST(ScenarioTest, LegitimateTrialBasics) {
  ScenarioSimulator sim(ScenarioConfig{}, 1);
  const auto t = sim.legitimate_trial(
      speech::command_by_text("play some music"), user_profile());
  EXPECT_FALSE(t.is_attack);
  EXPECT_FALSE(t.va.empty());
  EXPECT_FALSE(t.wearable.empty());
  EXPECT_EQ(t.command, "play some music");
  EXPECT_FALSE(t.alignment.empty());
  EXPECT_GT(t.true_delay_s, 0.0);
  // Wearable missed the first delay seconds.
  EXPECT_LT(t.wearable.size(), t.va.size());
}

TEST(ScenarioTest, WearableCloserSoLouder) {
  ScenarioSimulator sim(ScenarioConfig{}, 2);
  const auto t = sim.legitimate_trial(
      speech::command_by_text("play some music"), user_profile());
  // User mouth 0.4 m from wearable vs 2 m from VA.
  EXPECT_GT(t.wearable.rms(), 1.5 * t.va.rms());
}

TEST(ScenarioTest, AttackTrialIsQuietAndLowFrequency) {
  ScenarioSimulator sim(ScenarioConfig{}, 3);
  Rng rng(4);
  const auto victim = user_profile();
  const auto adv = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto t =
      sim.attack_trial(attacks::AttackType::kReplay,
                       speech::command_by_text("play some music"), victim,
                       adv);
  EXPECT_TRUE(t.is_attack);
  EXPECT_EQ(t.attack_type, attacks::AttackType::kReplay);
  // Barrier removes high-frequency content: received sound is dominated by
  // the sub-1kHz band (plus ambient noise).
  EXPECT_GT(dsp::band_energy_fraction(t.va, 0.0, 1000.0), 0.5);
  // And it is much quieter than a legitimate command at the VA.
  const auto legit = sim.legitimate_trial(
      speech::command_by_text("play some music"), victim);
  EXPECT_LT(t.va.rms(), legit.va.rms());
}

TEST(ScenarioTest, HigherAttackSplLouderAtVa) {
  ScenarioConfig quiet_cfg;
  quiet_cfg.attack_spl = 65.0;
  ScenarioConfig loud_cfg;
  loud_cfg.attack_spl = 85.0;
  ScenarioSimulator quiet(quiet_cfg, 5);
  ScenarioSimulator loud(loud_cfg, 5);
  Rng rng(6);
  const auto victim = user_profile();
  const auto adv = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto& cmd = speech::command_by_text("stop");
  const auto tq =
      quiet.attack_trial(attacks::AttackType::kReplay, cmd, victim, adv);
  const auto tl =
      loud.attack_trial(attacks::AttackType::kReplay, cmd, victim, adv);
  EXPECT_GT(tl.va.rms(), tq.va.rms());
}

TEST(ScenarioTest, DeterministicGivenSeed) {
  ScenarioSimulator s1(ScenarioConfig{}, 7);
  ScenarioSimulator s2(ScenarioConfig{}, 7);
  const auto t1 = s1.legitimate_trial(
      speech::command_by_text("stop"), user_profile());
  const auto t2 = s2.legitimate_trial(
      speech::command_by_text("stop"), user_profile());
  ASSERT_EQ(t1.va.size(), t2.va.size());
  for (std::size_t i = 0; i < t1.va.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.va[i], t2.va[i]);
  }
}

TEST(ScenarioTest, HiddenVoiceAttackHasNoAlignment) {
  ScenarioSimulator sim(ScenarioConfig{}, 8);
  Rng rng(9);
  const auto victim = user_profile();
  const auto adv = speech::sample_speaker(speech::Sex::kMale, rng);
  const auto t = sim.attack_trial(attacks::AttackType::kHiddenVoice,
                                  speech::command_by_text("stop"), victim,
                                  adv);
  EXPECT_TRUE(t.alignment.empty());
  EXPECT_FALSE(t.va.empty());
}

TEST(ScenarioTest, AttackSoundAtVaHonorsLevel) {
  ScenarioSimulator sim(ScenarioConfig{}, 10);
  Rng rng(11);
  const Signal wake =
      speech::UtteranceBuilder{}
          .build(speech::command_by_text("alexa"), user_profile(), rng)
          .audio;
  const Signal at65 = sim.attack_sound_at_va(wake, 65.0);
  const Signal at85 = sim.attack_sound_at_va(wake, 85.0);
  EXPECT_GT(at85.rms(), at65.rms());
}

// FNV-1a over every bit a recording carries: both channels' samples, the
// injected delay and the phoneme alignment.
std::uint64_t recording_hash(const TrialRecordings& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Signal* s : {&t.va, &t.wearable}) {
    mix(s->size());
    mix(std::bit_cast<std::uint64_t>(s->sample_rate()));
    for (const double x : *s) mix(std::bit_cast<std::uint64_t>(x));
  }
  mix(std::bit_cast<std::uint64_t>(t.true_delay_s));
  mix(t.alignment.size());
  for (const speech::PhonemeSpan& span : t.alignment) {
    for (const char c : span.symbol) mix(static_cast<unsigned char>(c));
    mix(span.begin);
    mix(span.end);
  }
  return h;
}

struct PinnedTrial {
  const char* name;
  bool is_attack;
  attacks::AttackType type;  // ignored for legitimate trials
  std::uint64_t hash;
};

// Renders `trials` in order from one simulator at the scalar SIMD level and
// checks each recording's hash. Rendering them in sequence also pins where
// every trial leaves the simulator's rng streams for the next one.
void expect_pinned(const ScenarioConfig& config,
                   std::initializer_list<PinnedTrial> trials) {
  const dsp::simd::Level prev = dsp::simd::active_level();
  ASSERT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
  ScenarioSimulator sim(config, 20261016);
  Rng people(11);
  const auto victim = speech::sample_speaker(speech::Sex::kFemale, people);
  const auto adversary = speech::sample_speaker(speech::Sex::kMale, people);
  const auto& command = speech::command_by_text("unlock the front door");
  for (const PinnedTrial& p : trials) {
    const TrialRecordings t =
        p.is_attack ? sim.attack_trial(p.type, command, victim, adversary)
                    : sim.legitimate_trial(command, victim);
    const std::uint64_t h = recording_hash(t);
    EXPECT_EQ(h, p.hash) << p.name << ": recording hash is 0x" << std::hex
                         << h;
  }
  dsp::simd::set_level(prev);
}

// Recorded before render steps were split into draw and realize halves;
// any change to what a trial records, or to the rng it leaves behind,
// fails here by trial name.
TEST(ScenarioTest, RecordingBitsArePinned) {
  using attacks::AttackType;
  expect_pinned(
      ScenarioConfig{},
      {{"legitimate", false, AttackType::kRandom, 0x3f63d983e7a6f2d9ull},
       {"random", true, AttackType::kRandom, 0x064f11e21ccadc7dull},
       {"replay", true, AttackType::kReplay, 0x9db6ec6592f72dedull},
       {"synthesis", true, AttackType::kSynthesis, 0x52ad442817e48c6bull},
       {"hidden_voice", true, AttackType::kHiddenVoice,
        0x554be958ef039e41ull}});
  const std::pair<acoustics::AmbientKind, std::uint64_t> kAmbient[] = {
      {acoustics::AmbientKind::kQuiet, 0x3f63d983e7a6f2d9ull},
      {acoustics::AmbientKind::kHvac, 0x5b21e18e736296a7ull},
      {acoustics::AmbientKind::kMusic, 0x1df2a3b923e5a91dull},
      {acoustics::AmbientKind::kBabble, 0x4694e9d7dafd8ef5ull},
  };
  for (const auto& [kind, hash] : kAmbient) {
    ScenarioConfig config;
    config.room.ambient_kind = kind;
    const std::string name = "legitimate/" + acoustics::ambient_name(kind);
    expect_pinned(config, {{name.c_str(), false, AttackType::kRandom, hash}});
  }
}

}  // namespace
}  // namespace vibguard::eval
