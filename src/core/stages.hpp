// The staged defense pipeline: composable stage graph + per-thread
// workspaces.
//
// DefenseSystem::score used to be one monolithic function; it is now a
// driver that walks a declarative sequence of Stage objects. Each stage
// reads and writes a PipelineContext — the inputs, collaborator components,
// dataflow cursors and scratch storage for one scored command — so stages
// are stateless singletons shared by every DefenseSystem instance
// (DefenseSystem itself stays copyable/movable).
//
// The three DefenseModes are stage sequences:
//
//   kFull              quality → sync → segment → vibration_capture →
//                      features → correlate
//   kVibrationBaseline quality → sync → vibration_capture → features →
//                      correlate
//   kAudioBaseline     quality → sync → audio_features → correlate
//
// QualityStage (core/quality.hpp) measures the raw input pair and — per the
// configured QualityConfig::Gate — may halt the run: the driver then skips
// the remaining stages and reports kIndeterminateScore instead of scoring
// garbage. SyncStage raises additional flags (too-short overlap, delay
// pinned at the search-window edge) through the same gate.
//
// A Workspace owns every reusable buffer one scoring thread needs. After a
// few warm-up commands all buffers reach their high-water capacity and
// repeated scoring performs zero steady-state heap allocations (measured by
// bench_score_batch via common/alloc_counter.hpp). It also owns the
// companion thread that captures the wearable channel while the scoring
// thread captures the VA channel (VibrationCaptureStage).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "common/companion.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "core/detector.hpp"
#include "core/quality.hpp"
#include "core/segmentation.hpp"
#include "core/trace.hpp"
#include "core/vibration_features.hpp"
#include "device/sync.hpp"
#include "device/wearable.hpp"
#include "dsp/scratch.hpp"
#include "dsp/stft.hpp"

namespace vibguard::core {

enum class DefenseMode;   // defined in core/pipeline.hpp
struct DefenseConfig;     // defined in core/pipeline.hpp

/// Reusable per-thread storage for the staged pipeline. Not thread-safe;
/// give each scoring thread its own instance. Every field is fully
/// overwritten before being read on each run, so a Workspace carries no
/// state between commands — only heap capacity, and its companion thread.
struct Workspace {
  dsp::Scratch scratch;

  // SyncStage outputs: the delay-aligned equal-length recordings.
  Signal va_sync;
  Signal wear_sync;

  // SegmentStage outputs: sensitive-phoneme ranges and the concatenated
  // segment streams.
  std::vector<SampleRange> ranges;
  Signal va_seg;
  Signal wear_seg;

  // VibrationCaptureStage outputs: 200 Hz accelerometer captures.
  Signal vib_va;
  Signal vib_wear;

  /// VibrationCaptureStage realizes the wearable channel on `companion`,
  /// through `wear_scratch`, while the scoring thread realizes the VA
  /// channel through `scratch`. The thread starts on the first split
  /// capture and is joined when the workspace is destroyed.
  dsp::Scratch wear_scratch;
  Companion companion;

  // FeatureStage / AudioFeatureStage outputs.
  dsp::Spectrogram feat_va;
  dsp::Spectrogram feat_wear;

  // QualityStage output (SyncStage may add flags); cleared by the driver at
  // the start of every run.
  QualityReport quality;

  /// The stage currently executing (static name), for structured error
  /// reports when a stage throws. Maintained by the pipeline driver.
  const char* current_stage = "";

  /// Set by the driver when the run's Deadline expired at a stage boundary
  /// (cooperative cancellation); try_score maps it to
  /// ScoreStatus::kDeadlineExceeded. Cleared at the start of every run.
  bool deadline_expired = false;
};

/// Everything one pipeline run reads and writes. Collaborator pointers are
/// borrowed from the DefenseSystem for the duration of the run; dataflow
/// cursors (`cur_va` / `cur_wear`) point into the Workspace (or at the
/// inputs) and advance as stages execute.
struct PipelineContext {
  // Collaborators (set by the driver, never null during a run).
  const DefenseConfig* config = nullptr;
  const device::Wearable* wearable = nullptr;
  const device::SyncChannel* sync = nullptr;
  const VibrationFeatureExtractor* extractor = nullptr;
  const CorrelationDetector* detector = nullptr;

  // Inputs.
  const Signal* va_in = nullptr;
  const Signal* wear_in = nullptr;
  const Segmenter* segmenter = nullptr;  ///< required in kFull mode
  Rng* rng = nullptr;

  // Scratch storage.
  Workspace* ws = nullptr;

  // Optional trace sink (may be null).
  PipelineTrace* trace = nullptr;

  /// Optional per-run time budget (may be null = unbounded). The driver
  /// checks it at stage boundaries only — cooperative cancellation, never
  /// mid-stage — and a null deadline reads no clock at all.
  const Deadline* deadline = nullptr;

  // Dataflow cursors: the current (VA, wearable) signal pair.
  const Signal* cur_va = nullptr;
  const Signal* cur_wear = nullptr;

  /// Samples trimmed from the front of the VA recording by synchronization
  /// (the segmenters' timeline offset).
  std::size_t timeline_offset = 0;
  double delay_s = 0.0;

  /// The pipeline's result, written by CorrelateStage.
  double score = 0.0;

  /// Set by a stage when the quality gate decides the trial cannot be
  /// scored trustworthily; the driver stops executing stages and reports
  /// kIndeterminateScore (the structured reason lives in ws->quality).
  bool halted = false;

  /// Set by each stage for instrumentation: elements it produced. The
  /// driver feeds it forward as the next stage's samples_in.
  std::size_t stage_samples_out = 0;
};

/// A pipeline stage: a stateless transformation of the PipelineContext.
/// Implementations hold no per-run state, so one shared instance serves
/// every thread and every DefenseSystem.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual void run(PipelineContext& ctx) const = 0;
};

/// Signal-quality gate (see core/quality.hpp): measures both raw inputs
/// (clipping, gaps, DC offset, dead channels, non-finite contamination,
/// too-short captures) into Workspace::quality and halts the run when the
/// configured gate deems the pair unscoreable. Always first in every mode.
class QualityStage final : public Stage {
 public:
  const char* name() const override { return "quality"; }
  void run(PipelineContext& ctx) const override;
  static const QualityStage& instance();
};

/// Cross-device synchronization (paper Sec. VI-A): estimates the network
/// delay and aligns both recordings.
class SyncStage final : public Stage {
 public:
  const char* name() const override { return "sync"; }
  void run(PipelineContext& ctx) const override;
  static const SyncStage& instance();
};

/// Sensitive-phoneme segmentation (paper Sec. V): keeps only the
/// barrier-effect-sensitive ranges, falling back to the whole command when
/// the selection is shorter than DefenseConfig::min_segment_seconds.
class SegmentStage final : public Stage {
 public:
  const char* name() const override { return "segment"; }
  void run(PipelineContext& ctx) const override;
  static const SegmentStage& instance();
};

/// Cross-domain capture (paper Sec. IV-A): replays both streams through the
/// wearable's speaker and records the induced vibration at 200 Hz. Both
/// channels draw serially, then realize at once: the wearable channel on
/// the workspace's companion thread. A ThreadPool worker, or a host with
/// recommended_threads() < 2, realizes both inline.
class VibrationCaptureStage final : public Stage {
 public:
  const char* name() const override { return "vib_capture"; }
  void run(PipelineContext& ctx) const override;
  static const VibrationCaptureStage& instance();
};

/// Vibration-domain feature extraction (paper Sec. VI-B).
class FeatureStage final : public Stage {
 public:
  const char* name() const override { return "features"; }
  void run(PipelineContext& ctx) const override;
  static const FeatureStage& instance();
};

/// Audio-domain spectrogram features (the paper's audio-only baseline).
class AudioFeatureStage final : public Stage {
 public:
  const char* name() const override { return "audio_features"; }
  void run(PipelineContext& ctx) const override;
  static const AudioFeatureStage& instance();
};

/// 2-D correlation scoring (paper Sec. VI-C, Eq. 6).
class CorrelateStage final : public Stage {
 public:
  const char* name() const override { return "correlate"; }
  void run(PipelineContext& ctx) const override;
  static const CorrelateStage& instance();
};

/// The declarative stage composition for `mode` (static storage; never
/// empty).
std::span<const Stage* const> stage_sequence(DefenseMode mode);

}  // namespace vibguard::core
