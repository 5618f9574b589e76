#include "eval/experiment.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace vibguard::eval {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.legit_trials = 8;
  cfg.attack_trials = 8;
  cfg.num_speakers = 4;
  return cfg;
}

TEST(ExperimentTest, ReferenceSensitiveSetHas29Phonemes) {
  const auto& set = reference_sensitive_set();
  EXPECT_EQ(set.size(), 29u);
  // Paper-named Criterion-I failures are excluded...
  EXPECT_EQ(set.count("aa"), 0u);
  EXPECT_EQ(set.count("ao"), 0u);
  // ...and representative strong phonemes are included.
  EXPECT_EQ(set.count("t"), 1u);
  EXPECT_EQ(set.count("ae"), 1u);
  EXPECT_EQ(set.count("s"), 1u);
}

TEST(ExperimentTest, RunProducesRequestedPopulations) {
  ExperimentRunner runner(small_config(), 1);
  const auto results =
      runner.run(attacks::AttackType::kReplay, {core::DefenseMode::kFull});
  ASSERT_EQ(results.size(), 1u);
  const auto& pops = results.at(core::DefenseMode::kFull);
  EXPECT_EQ(pops.legit.size(), 8u);
  EXPECT_EQ(pops.attack.size(), 8u);
}

TEST(ExperimentTest, MultipleModesShareTrials) {
  ExperimentRunner runner(small_config(), 2);
  const auto results = runner.run(
      attacks::AttackType::kReplay,
      {core::DefenseMode::kFull, core::DefenseMode::kAudioBaseline});
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results.at(core::DefenseMode::kAudioBaseline).legit.size(), 8u);
}

TEST(ExperimentTest, FullModeSeparatesAttacks) {
  ExperimentConfig cfg = small_config();
  cfg.legit_trials = 10;
  cfg.attack_trials = 10;
  ExperimentRunner runner(cfg, 3);
  const auto results =
      runner.run(attacks::AttackType::kReplay, {core::DefenseMode::kFull});
  const auto roc = results.at(core::DefenseMode::kFull).roc();
  EXPECT_GT(roc.auc, 0.8);
  EXPECT_LT(roc.eer, 0.3);
}

TEST(ExperimentTest, ScoresAreFinite) {
  ExperimentRunner runner(small_config(), 4);
  const auto results = runner.run(attacks::AttackType::kHiddenVoice,
                                  {core::DefenseMode::kFull});
  for (double s : results.at(core::DefenseMode::kFull).legit) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(ExperimentTest, DeterministicGivenSeed) {
  ExperimentRunner r1(small_config(), 5);
  ExperimentRunner r2(small_config(), 5);
  const auto a =
      r1.run(attacks::AttackType::kRandom, {core::DefenseMode::kFull});
  const auto b =
      r2.run(attacks::AttackType::kRandom, {core::DefenseMode::kFull});
  const auto& pa = a.at(core::DefenseMode::kFull);
  const auto& pb = b.at(core::DefenseMode::kFull);
  for (std::size_t i = 0; i < pa.legit.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa.legit[i], pb.legit[i]);
  }
}

// The contract that parallel rendering and scoring change nothing: every
// population, at every thread count, equals the serial one bit for bit,
// unscored tallies included.
TEST(ExperimentTest, ScoresAreBitIdenticalAtEveryThreadCount) {
  const auto bits = [](const std::vector<double>& scores) {
    std::vector<std::uint64_t> out;
    for (const double s : scores) {
      out.push_back(std::bit_cast<std::uint64_t>(s));
    }
    return out;
  };
  for (const attacks::AttackType attack : attacks::all_attack_types()) {
    const auto run_with = [attack](std::size_t threads) {
      ExperimentConfig cfg = small_config();
      cfg.threads = threads;
      ExperimentRunner runner(cfg, 7);
      return runner.run(attack, {core::DefenseMode::kFull,
                                 core::DefenseMode::kAudioBaseline});
    };
    const auto serial = run_with(1);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << attacks::attack_name(attack)
                                      << " at " << threads << " threads");
      const auto parallel = run_with(threads);
      ASSERT_EQ(parallel.size(), serial.size());
      for (const auto& [mode, expected] : serial) {
        const ScorePopulations& got = parallel.at(mode);
        EXPECT_EQ(bits(got.legit), bits(expected.legit));
        EXPECT_EQ(bits(got.attack), bits(expected.attack));
        EXPECT_EQ(got.legit_unscored, expected.legit_unscored);
        EXPECT_EQ(got.attack_unscored, expected.attack_unscored);
      }
    }
  }
}

TEST(ExperimentTest, PopulationsAreCachedPerAttackAndMode) {
  ExperimentRunner runner(small_config(), 8);
  const auto first =
      runner.run(attacks::AttackType::kReplay, {core::DefenseMode::kFull});
  ASSERT_EQ(runner.cached_populations().size(), 1u);

  // eer() for the same pair is served from the cache: no new entries, and
  // the value matches the ROC of the cached populations.
  const double eer =
      runner.eer(attacks::AttackType::kReplay, core::DefenseMode::kFull);
  EXPECT_EQ(runner.cached_populations().size(), 1u);
  EXPECT_DOUBLE_EQ(eer, first.at(core::DefenseMode::kFull).roc().eer);

  // Repeat runs return the cached scores verbatim.
  const auto second =
      runner.run(attacks::AttackType::kReplay, {core::DefenseMode::kFull});
  EXPECT_EQ(second.at(core::DefenseMode::kFull).legit,
            first.at(core::DefenseMode::kFull).legit);
  EXPECT_EQ(second.at(core::DefenseMode::kFull).attack,
            first.at(core::DefenseMode::kFull).attack);

  // A different (attack, mode) pair is a fresh cache entry.
  runner.eer(attacks::AttackType::kRandom, core::DefenseMode::kFull);
  EXPECT_EQ(runner.cached_populations().size(), 2u);
}

TEST(ExperimentTest, CachedAndFreshModesCompose) {
  // Scoring kFull first and adding kAudioBaseline later must give the same
  // populations as scoring both at once: each mode's scores are independent
  // of which other modes were requested alongside it.
  ExperimentRunner incremental(small_config(), 9);
  incremental.run(attacks::AttackType::kReplay, {core::DefenseMode::kFull});
  const auto mixed = incremental.run(
      attacks::AttackType::kReplay,
      {core::DefenseMode::kFull, core::DefenseMode::kAudioBaseline});

  ExperimentRunner oneshot(small_config(), 9);
  const auto together = oneshot.run(
      attacks::AttackType::kReplay,
      {core::DefenseMode::kFull, core::DefenseMode::kAudioBaseline});

  for (const auto& [mode, expected] : together) {
    const auto& got = mixed.at(mode);
    ASSERT_EQ(got.legit.size(), expected.legit.size());
    for (std::size_t i = 0; i < expected.legit.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.legit[i], expected.legit[i])
          << core::mode_name(mode) << " legit trial " << i;
    }
    for (std::size_t i = 0; i < expected.attack.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.attack[i], expected.attack[i])
          << core::mode_name(mode) << " attack trial " << i;
    }
  }
}

TEST(ExperimentTest, EerHelperMatchesRun) {
  ExperimentRunner runner(small_config(), 6);
  const double eer =
      runner.eer(attacks::AttackType::kReplay, core::DefenseMode::kFull);
  EXPECT_GE(eer, 0.0);
  EXPECT_LE(eer, 1.0);
}

TEST(ExperimentTest, RejectsTooFewSpeakers) {
  ExperimentConfig cfg = small_config();
  cfg.num_speakers = 1;
  EXPECT_THROW(ExperimentRunner(cfg, 1), vibguard::InvalidArgument);
}

TEST(ExperimentTest, RejectsEmptyPopulation) {
  ExperimentConfig cfg = small_config();
  cfg.legit_trials = 0;
  cfg.attack_trials = 0;
  EXPECT_THROW(ExperimentRunner(cfg, 1), vibguard::InvalidArgument);
}

}  // namespace
}  // namespace vibguard::eval
