// Golden-score pins: four fixed end-to-end trials (legitimate, replay,
// synthesis, hidden voice) rendered and scored in kFull mode, each pinned to
// its estimated delay in samples and the exact bits of its score, at the
// scalar SIMD level and again at AVX2. The AVX2 scores differ from the
// scalar ones by the reduction kernels' documented rounding, so each level
// has its own bits. Speed work on any stage must leave these untouched; a
// flipped sync argmax or a reassociated sum fails here by name instead of
// surfacing later as a drifted EER.
#include <gtest/gtest.h>

#include <algorithm>
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
  std::uint64_t score_bits;       // at Level::kScalar
  std::int64_t avx2_delay_samples;
  std::uint64_t avx2_score_bits;  // at Level::kAvx2
};

// Scalar scores: 0.934500052, 0.056318256, 0.437437834, 0.094328598.
constexpr Golden kGolden[] = {
    {"legitimate", false, attacks::AttackType::kReplay, 1917,
     0x3fede76ca728f53aull, 1917, 0x3fede76ca728f538ull},
    {"replay", true, attacks::AttackType::kReplay, 981,
     0x3facd5bf15031f79ull, 981, 0x3facd5bf15031f6dull},
    {"synthesis", true, attacks::AttackType::kSynthesis, 1320,
     0x3fdbfefb420aef0eull, 1320, 0x3fdbfefb420aeefcull},
    {"hidden_voice", true, attacks::AttackType::kHiddenVoice, 1804,
     0x3fb825eb43695048ull, 1804, 0x3fb825eb43695011ull},
};

// gtest would otherwise print a Golden as its raw bytes, address of `name`
// included, and ctest's discovered test names would change with every build.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

// Holds one dispatch level for one test, restoring the previous one.
class LevelScope {
 public:
  explicit LevelScope(dsp::simd::Level level)
      : prev_(dsp::simd::active_level()) {
    EXPECT_TRUE(dsp::simd::set_level(level));
  }
  ~LevelScope() { dsp::simd::set_level(prev_); }

 private:
  dsp::simd::Level prev_;
};

struct Scored {
  std::int64_t delay_samples;
  std::uint64_t score_bits;
};

// Renders and scores the trial at the active dispatch level.
Scored score_trial(const Golden& g) {
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
  return {std::llround(trace.estimated_delay_s * trial.va.sample_rate()),
          std::bit_cast<std::uint64_t>(score)};
}

class GoldenScoreTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenScoreTest, DelayAndScoreBitsArePinned) {
  const Golden& g = GetParam();
  const LevelScope scalar(dsp::simd::Level::kScalar);
  const Scored s = score_trial(g);
  EXPECT_EQ(s.delay_samples, g.delay_samples) << g.name;
  EXPECT_EQ(s.score_bits, g.score_bits)
      << g.name << ": score " << std::bit_cast<double>(s.score_bits)
      << " has bits 0x" << std::hex << s.score_bits;
}

TEST_P(GoldenScoreTest, Avx2DelayAndScoreBitsArePinned) {
  const Golden& g = GetParam();
  const auto levels = dsp::simd::available_levels();
  if (std::find(levels.begin(), levels.end(), dsp::simd::Level::kAvx2) ==
      levels.end()) {
    GTEST_SKIP() << "AVX2 is not available in this build or on this CPU";
  }
  const LevelScope avx2(dsp::simd::Level::kAvx2);
  const Scored s = score_trial(g);
  EXPECT_EQ(s.delay_samples, g.avx2_delay_samples) << g.name;
  EXPECT_EQ(s.score_bits, g.avx2_score_bits)
      << g.name << ": score " << std::bit_cast<double>(s.score_bits)
      << " has bits 0x" << std::hex << s.score_bits;
}

INSTANTIATE_TEST_SUITE_P(Trials, GoldenScoreTest, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace vibguard::core
