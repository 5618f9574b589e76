// Golden-score pins: four fixed end-to-end trials (legitimate, replay,
// synthesis, hidden voice) rendered and scored in kFull mode at the scalar
// SIMD level, each pinned to its estimated delay in samples and the exact
// bits of its score. Speed work on any stage must leave these untouched; a
// flipped sync argmax or a reassociated sum fails here by name instead of
// surfacing later as a drifted EER.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>

#include "attacks/attack.hpp"
#include "core/pipeline.hpp"
#include "core/trace.hpp"
#include "dsp/simd.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"
#include "speech/command.hpp"
#include "speech/speaker.hpp"

namespace vibguard::core {
namespace {

struct Golden {
  const char* name;
  bool is_attack;
  attacks::AttackType type;  // ignored for the legitimate trial
  std::int64_t delay_samples;
  std::uint64_t score_bits;
};

// Scores: 0.934500052, 0.056318256, 0.437437834, 0.094328598.
constexpr Golden kGolden[] = {
    {"legitimate", false, attacks::AttackType::kReplay, 1917,
     0x3fede76ca728f53aull},
    {"replay", true, attacks::AttackType::kReplay, 981,
     0x3facd5bf15031f79ull},
    {"synthesis", true, attacks::AttackType::kSynthesis, 1320,
     0x3fdbfefb420aef0eull},
    {"hidden_voice", true, attacks::AttackType::kHiddenVoice, 1804,
     0x3fb825eb43695048ull},
};

// gtest would otherwise print a Golden as its raw bytes, address of `name`
// included, and ctest's discovered test names would change with every build.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

// Holds the scalar dispatch level for one test, restoring the previous one.
class ScalarLevel {
 public:
  ScalarLevel() : prev_(dsp::simd::active_level()) {
    EXPECT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
  }
  ~ScalarLevel() { dsp::simd::set_level(prev_); }

 private:
  dsp::simd::Level prev_;
};

class GoldenScoreTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenScoreTest, DelayAndScoreBitsArePinned) {
  const Golden& g = GetParam();
  ScalarLevel scalar;

  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 20261016);
  Rng people(11);
  const auto victim = speech::sample_speaker(speech::Sex::kFemale, people);
  const auto adversary = speech::sample_speaker(speech::Sex::kMale, people);
  const auto& command = speech::command_by_text("unlock the front door");
  const eval::TrialRecordings trial =
      g.is_attack ? sim.attack_trial(g.type, command, victim, adversary)
                  : sim.legitimate_trial(command, victim);

  DefenseSystem system{DefenseConfig{}};
  OracleSegmenter segmenter(trial.alignment, eval::reference_sensitive_set());
  Rng rng(12);
  PipelineTrace trace;
  const double score =
      system.score(trial.va, trial.wearable, &segmenter, rng, &trace);

  const std::int64_t delay =
      std::llround(trace.estimated_delay_s * trial.va.sample_rate());
  const auto bits = std::bit_cast<std::uint64_t>(score);
  EXPECT_EQ(delay, g.delay_samples) << g.name;
  EXPECT_EQ(bits, g.score_bits)
      << g.name << ": score " << score << " has bits 0x" << std::hex << bits;
}

INSTANTIATE_TEST_SUITE_P(Trials, GoldenScoreTest, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace vibguard::core
