// Pipeline instrumentation: per-stage trace records and aggregate stats.
//
// Every run of the staged pipeline (core/stages.hpp) can record, per stage,
// the wall time, the sample counts flowing in and out, and the number of
// heap allocations performed (via common/alloc_counter.hpp). PipelineTrace
// collects one command's records plus the intermediate artifacts tests and
// analysis tools inspect; PipelineStats aggregates many traces into the
// per-stage totals printed by vibguard_cli.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/quality.hpp"
#include "dsp/stft.hpp"

namespace vibguard::core {

/// Instrumentation record for one stage execution.
struct StageTrace {
  const char* name = "";        ///< static stage name (see Stage::name)
  std::uint64_t start_us = 0;   ///< offset from the pipeline run's start
  std::uint64_t wall_us = 0;    ///< stage wall time
  std::size_t samples_in = 0;   ///< elements flowing into the stage
  std::size_t samples_out = 0;  ///< elements the stage produced
  std::uint64_t allocations = 0;  ///< heap allocations during the stage
};

/// Intermediate artifacts and per-stage records of one scored command,
/// exposed for analysis and tests. Reusable: every run overwrites all
/// fields, retaining heap capacity across runs.
struct PipelineTrace {
  double estimated_delay_s = 0.0;
  std::size_t num_ranges = 0;
  double segment_seconds = 0.0;
  dsp::Spectrogram features_va;
  dsp::Spectrogram features_wearable;

  /// Signal-quality report of the run (copied from the workspace at the end
  /// of the run; meaningful for halted runs too).
  QualityReport quality;

  /// One record per executed stage, in execution order. Halted runs only
  /// record the stages that actually executed; streaming runs record one
  /// entry per push per stage, so the same stage name can appear many times.
  std::vector<StageTrace> stages;

  /// Resets the scalar fields and stage records for the next run while
  /// keeping vector/spectrogram capacity. The pipeline driver calls this;
  /// callers handing a fresh trace never need to.
  void begin_run();

  /// Appends another trace's stage records to this one without clearing
  /// anything — how a streaming run folds the records of its finalize pass
  /// (which begin_run()s its own trace) after the accumulated per-push
  /// records.
  void append(const PipelineTrace& other);
};

/// Per-stage aggregates over many scored commands.
struct PipelineStats {
  /// A stage used to run exactly once per command, so "calls" doubled as a
  /// trial count. Streaming broke that: one push = one invocation, so a
  /// stage can run hundreds of times within a single trial. The aggregates
  /// therefore keep both axes — `calls` counts invocations, `trials` counts
  /// commands in which the stage ran at least once — and expose per-push
  /// (per-call) and per-trial views.
  struct StageStats {
    std::string name;
    std::uint64_t calls = 0;   ///< stage invocations (one push = one call)
    std::uint64_t trials = 0;  ///< commands where the stage ran >= once
    std::uint64_t total_wall_us = 0;
    std::uint64_t max_wall_us = 0;  ///< over single invocations
    std::uint64_t total_allocations = 0;

    /// Per-push view: mean wall time of one invocation.
    double mean_wall_us() const {
      return calls > 0 ? static_cast<double>(total_wall_us) /
                             static_cast<double>(calls)
                       : 0.0;
    }

    /// Per-trial views: how often the stage runs within one command, and
    /// what it costs per command. For batch pipelines calls == trials and
    /// these reduce to the per-push numbers.
    double mean_calls_per_trial() const {
      return trials > 0
                 ? static_cast<double>(calls) / static_cast<double>(trials)
                 : 0.0;
    }
    double mean_wall_per_trial_us() const {
      return trials > 0 ? static_cast<double>(total_wall_us) /
                              static_cast<double>(trials)
                        : 0.0;
    }

    /// Internal marker used by PipelineStats::add to count trials without
    /// rescanning the record list (the id of the last command that touched
    /// this stage).
    std::uint64_t last_seen = 0;
  };

  std::uint64_t commands = 0;
  std::vector<StageStats> stages;  ///< first-seen stage order

  /// Folds one command's stage records into the aggregates.
  void add(const PipelineTrace& trace);

  void clear();

  /// Multi-line human-readable table (one row per stage).
  std::string summary() const;
};

}  // namespace vibguard::core
