// Traced pipeline: scores one command by walking
// core::stage_sequence(mode) through Stage::run over a PipelineContext
// assembled from the DefenseSystem's public accessors, with one span per
// stage. Its scores must be bit-identical to DefenseSystem::score.
#pragma once

#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "device/sync.hpp"
#include "dsp/scratch.hpp"
#include "harness.hpp"

namespace vgbench {

/// Work counts the traced pipeline measures where the work happens.
struct StageCounts {
  std::size_t commands = 0;
  double sync_samples_in = 0.0;
  double vib_samples_in = 0.0;
  double segment_in = 0.0;
  double segment_out = 0.0;
  double feature_frames = 0.0;
  std::uint64_t allocations = 0;  ///< heap allocations inside Stage::run
};

class TracedPipeline {
 public:
  explicit TracedPipeline(const vibguard::core::DefenseSystem& system);

  /// Scores one command under a "core.score" span with one child span per
  /// stage. After the command span closes, the two halves of
  /// vib_capture — Speaker::render_into and Accelerometer::capture_into —
  /// are timed on the stage's own inputs as separate root spans
  /// ("sensors.speaker", "sensors.accel"); they do not touch the score.
  double score(const vibguard::Signal& va, const vibguard::Signal& wearable,
               const vibguard::core::Segmenter* segmenter, vibguard::Rng& rng,
               vibguard::core::Workspace& ws, Tracer& tracer,
               std::uint64_t request, StageCounts& counts);

 private:
  const vibguard::core::DefenseSystem* system_;
  vibguard::device::SyncChannel sync_;
  vibguard::dsp::Scratch side_scratch_;
  vibguard::Signal side_rendered_;
  vibguard::Signal side_vibration_;
};

/// Fills the core.* and sensors.* per-layer metrics from the traced
/// spans and counts (per command, self time).
void report_stage_metrics(const std::map<std::string, SpanTotals>& totals,
                          const StageCounts& counts, Report& report);

}  // namespace vgbench
