#include "eval/sweep_population.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "speech/speaker.hpp"

namespace vibguard::eval {
namespace {

/// EER needs a minimally populated pair of score classes to mean anything.
constexpr std::size_t kMinClassScores = 2;

}  // namespace

double eer_or_nan(const std::vector<double>& attack,
                  const std::vector<double>& legit) {
  if (attack.size() < kMinClassScores || legit.size() < kMinClassScores) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return compute_roc(attack, legit).eer;
}

std::uint64_t percentile_nearest_rank(std::vector<std::uint64_t> values,
                                      double pct) {
  VIBGUARD_REQUIRE(pct > 0.0 && pct <= 100.0, "percentile must be in (0,100]");
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[rank - 1];
}

void render_sweep_population(const LoadSweepConfig& config,
                             std::uint64_t seed, SweepPopulation& pop) {
  VIBGUARD_REQUIRE(config.num_speakers >= 2,
                   "need at least two speakers (victim + adversary)");
  VIBGUARD_REQUIRE(config.legit_trials + config.attack_trials > 0,
                   "sweep population must hold at least one trial");
  VIBGUARD_REQUIRE(!config.offered_rps.empty(),
                   "offered-load grid must be non-empty");
  for (const double rps : config.offered_rps) {
    VIBGUARD_REQUIRE(rps > 0.0, "offered load must be positive");
  }

  // Mirror the fault sweep's deterministic definition: one shared
  // simulator stream in a fixed order.
  Rng rng(seed);
  const auto speakers = speech::sample_population(config.num_speakers, rng);
  ScenarioSimulator sim(config.scenario, seed ^ 0x5ce9a21ULL);
  ThreadPool pool(std::min(recommended_threads(),
                           config.legit_trials + config.attack_trials));
  pop.trials = render_trials(sim, speakers, config.legit_trials,
                             config.attack_trials, config.attack, pool);

  const auto& sensitive = reference_sensitive_set();
  pop.oracles.reserve(pop.trials.size());
  for (const TrialRecordings& trial : pop.trials) {
    pop.oracles.emplace_back(trial.alignment, sensitive);
  }

  pop.primary_cfg = config.defense;
  pop.primary_cfg.wearable = config.scenario.wearable;
  pop.primary_cfg.sync = config.scenario.sync;

  // Request order: one deterministic interleaving of the population,
  // shared by every load point so the points differ only in timing.
  pop.order.resize(pop.trials.size());
  for (std::size_t i = 0; i < pop.order.size(); ++i) pop.order[i] = i;
  Rng shuffle_rng = rng.fork(0x0de1ULL);
  for (std::size_t i = pop.order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(pop.order[i - 1], pop.order[j]);
  }

  pop.score_rng = Rng(seed ^ 0x7e57ULL);
  pop.arrival_rng = Rng(seed ^ 0xa331a1ULL);
}

std::vector<std::uint64_t> poisson_arrivals(const Rng& arrival_rng,
                                            std::size_t point_index,
                                            double rps, std::size_t count) {
  Rng arrivals_rng = arrival_rng.fork(point_index);
  std::vector<std::uint64_t> arrival_us(count);
  std::uint64_t t_us = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double gap_s = -std::log(1.0 - arrivals_rng.uniform()) / rps;
    t_us += std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(gap_s * 1e6)));
    arrival_us[i] = t_us;
  }
  return arrival_us;
}

}  // namespace vibguard::eval
