#include "eval/fault_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/segmentation.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "speech/speaker.hpp"

namespace vibguard::eval {
namespace {

/// EER/AUC need a minimally populated pair of score classes to mean
/// anything; below this we report NaN instead of a fabricated number.
constexpr std::size_t kMinClassScores = 2;

double nan_metric() { return std::numeric_limits<double>::quiet_NaN(); }

}  // namespace

std::string FaultSweepResult::summary() const {
  std::string out = "fault sweep: " + fault_label + "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %8s %7s %14s %7s %8s %8s\n",
                "severity", "scored", "indeterminate", "errors", "EER",
                "AUC");
  out += line;
  for (const FaultSweepPoint& p : points) {
    std::snprintf(line, sizeof(line),
                  "  %8.2f %7zu %14zu %7zu %8.3f %8.3f\n", p.severity,
                  p.scored, p.indeterminate, p.errors, p.eer, p.auc);
    out += line;
  }
  return out;
}

FaultSweepResult run_fault_sweep(const FaultSweepConfig& config,
                                 std::uint64_t seed) {
  VIBGUARD_REQUIRE(config.num_speakers >= 2,
                   "need at least two speakers (victim + adversary)");
  VIBGUARD_REQUIRE(!config.severities.empty(),
                   "severity grid must be non-empty");
  VIBGUARD_REQUIRE(config.legit_trials + config.attack_trials > 0,
                   "sweep population must hold at least one trial");

  // Render the clean trial population once, mirroring ExperimentRunner's
  // deterministic definition: one shared simulator stream in a fixed order.
  const std::size_t threads =
      config.threads != 0 ? config.threads : recommended_threads();
  ThreadPool pool(
      std::min(threads, config.legit_trials + config.attack_trials));
  Rng rng(seed);
  const auto speakers = speech::sample_population(config.num_speakers, rng);
  ScenarioSimulator sim(config.scenario, seed ^ 0x5ce9a21ULL);
  const std::vector<TrialRecordings> trials =
      render_trials(sim, speakers, config.legit_trials, config.attack_trials,
                    config.attack, pool);

  const auto& sensitive = reference_sensitive_set();
  std::vector<core::OracleSegmenter> oracles;
  oracles.reserve(trials.size());
  for (const TrialRecordings& trial : trials) {
    oracles.emplace_back(trial.alignment, sensitive);
  }

  core::DefenseConfig defense = config.defense;
  defense.wearable = config.scenario.wearable;
  defense.sync = config.scenario.sync;
  const core::DefenseSystem system(defense);

  std::vector<core::Workspace> workspaces(
      std::max<std::size_t>(1, pool.num_threads()));

  const Rng score_rng(seed ^ 0x7e57ULL);
  const Rng fault_rng(seed ^ 0xfa017ULL);

  FaultSweepResult result;
  result.fault = config.fault;
  result.fault_label = faults::fault_name(config.fault);

  std::vector<Signal> faulty_va(trials.size());
  std::vector<Signal> faulty_wear(trials.size());
  std::vector<core::ScoreRequest> requests(trials.size());
  std::vector<core::ScoreOutcome> outcomes(trials.size());

  for (std::size_t sev_idx = 0; sev_idx < config.severities.size();
       ++sev_idx) {
    const double severity = config.severities[sev_idx];
    const faults::FaultPlan plan = faults::severity_plan(config.fault,
                                                         severity);

    // Corrupt deterministic copies: each (severity, trial, channel) gets
    // its own fork, so the corruption is independent of execution order
    // and of which other severities were requested.
    for (std::size_t t = 0; t < trials.size(); ++t) {
      faulty_va[t] = trials[t].va;
      faulty_wear[t] = trials[t].wearable;
      if (!plan.empty()) {
        const std::uint64_t label = sev_idx * 2654435761ULL + t * 2ULL;
        Rng va_rng = fault_rng.fork(label);
        plan.apply(faulty_va[t], va_rng);
        Rng wear_rng = fault_rng.fork(label + 1);
        plan.apply(faulty_wear[t], wear_rng);
      }
      const std::size_t legit_before =
          trials[t].is_attack ? config.legit_trials : t;
      const std::size_t attack_before =
          trials[t].is_attack ? t - config.legit_trials : 0;
      requests[t].va = &faulty_va[t];
      requests[t].wearable = &faulty_wear[t];
      requests[t].segmenter = &oracles[t];
      requests[t].rng = score_rng.fork(
          static_cast<std::uint64_t>(defense.mode) * 7919 +
          legit_before * 31 + attack_before);
    }

    system.score_batch(requests, std::span<core::ScoreOutcome>(outcomes),
                       pool, workspaces);

    FaultSweepPoint point;
    point.severity = severity;
    std::vector<double> legit, attack;
    for (std::size_t t = 0; t < trials.size(); ++t) {
      switch (outcomes[t].status) {
        case core::ScoreStatus::kOk:
          ++point.scored;
          (trials[t].is_attack ? attack : legit)
              .push_back(outcomes[t].score);
          break;
        case core::ScoreStatus::kIndeterminate:
          ++point.indeterminate;
          break;
        case core::ScoreStatus::kError:
          ++point.errors;
          break;
        case core::ScoreStatus::kDeadlineExceeded:
          // Unreachable here (the sweep scores without a deadline), but the
          // status space must stay covered.
          ++point.errors;
          break;
      }
    }
    if (legit.size() >= kMinClassScores && attack.size() >= kMinClassScores) {
      const RocCurve roc = compute_roc(attack, legit);
      point.eer = roc.eer;
      point.auc = roc.auc;
    } else {
      point.eer = nan_metric();
      point.auc = nan_metric();
    }
    result.points.push_back(point);
  }
  return result;
}

}  // namespace vibguard::eval
