// Early-exit fraction vs EER sweep for the streaming anytime-verdict layer.
//
// Quantifies the central trade-off of core/streaming.hpp: how much of the
// command can the stopping rule skip (time-to-verdict) before the detector's
// EER degrades? The sweep runs in three passes:
//
//   1. Calibration — stream a held-out trial population to completion with
//      the stopping rule disabled, recording each trial's final provisional
//      (segment) score, its coarse (whole-prefix) score AND its exact batch
//      score, then fit one ScoreCalibration per scale (the checkpoints use
//      their own feature grid and see only prefixes, so each score lives on
//      its own scale).
//   2. Batch reference — score the evaluation trials through the exact
//      batch pipeline (bit-identical to what a run-to-completion
//      kExactBatch stream would report) for the no-exit EER row and the
//      decision score of trials that do not exit.
//   3. Live rule per row — for each exit confidence c, stream every
//      evaluation trial with the stopping rule armed at c, stopping pushes
//      the moment a verdict is rendered. Early-exited trials contribute
//      1 - posterior at the exit; completed trials contribute
//      1 - posterior(batch score) under the batch-scale calibration. All
//      calibrations are monotone, so at c high enough that nothing exits
//      the sweep's EER equals the batch EER exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "eval/scenario.hpp"

namespace vibguard::eval {

struct StreamSweepConfig {
  ScenarioConfig scenario;
  attacks::AttackType attack = attacks::AttackType::kRandom;
  std::size_t num_speakers = 6;

  /// Held-out calibration population (per class) and the evaluated one.
  std::size_t calib_trials = 24;
  std::size_t eval_trials = 40;

  /// Must be kFull (baseline modes have no anytime evidence); wearable and
  /// sync are overridden from the scenario.
  core::DefenseConfig defense;
  core::StreamingConfig streaming;

  /// Push granularity of the simulated stream.
  std::size_t frame_samples = 1024;
};

/// One row of the committed EXPERIMENTS.md table.
struct StreamSweepRow {
  double exit_confidence = 0.0;
  double eer = 0.0;              ///< over calibrated decision scores
  double early_exit_rate = 0.0;  ///< fraction of trials exiting early
  double median_fraction = 1.0;  ///< median consumed fraction at verdict
  double mean_fraction = 1.0;
};

struct StreamSweepResult {
  double batch_eer = 0.0;  ///< run-to-completion (exact batch) EER
  std::vector<StreamSweepRow> rows;
  std::size_t unscored = 0;  ///< eval trials without a real batch score
  std::size_t calib_trials = 0;
  std::size_t eval_trials = 0;

  /// Markdown table (one row per confidence, batch row first).
  std::string summary() const;
};

/// Runs the sweep. Deterministic in (config, seed).
StreamSweepResult run_stream_sweep(const StreamSweepConfig& config,
                                   std::uint64_t seed);

}  // namespace vibguard::eval
