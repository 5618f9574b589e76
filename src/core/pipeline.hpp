// End-to-end defense pipeline (paper Fig. 5).
//
// Given the two recordings of one voice command — from the VA device and
// from the user's wearable — the pipeline synchronizes them, extracts the
// barrier-effect-sensitive phoneme segments, converts both segment streams
// to the vibration domain on the wearable, extracts vibration features and
// scores their 2-D correlation. Three operating modes reproduce the paper's
// evaluation arms:
//
//   kFull              — vibration domain + phoneme selection (the system)
//   kVibrationBaseline — vibration domain, no phoneme selection
//   kAudioBaseline     — 2-D correlation directly on audio spectrograms
//
// Each mode is a declaratively composed sequence of pipeline stages (see
// core/stages.hpp); DefenseSystem::score drives the sequence over a
// PipelineContext. Repeated scoring through a caller-owned Workspace — or
// the batch API — performs zero steady-state heap allocations.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "common/signal.hpp"
#include "common/thread_pool.hpp"
#include "core/detector.hpp"
#include "core/segmentation.hpp"
#include "core/stages.hpp"
#include "core/trace.hpp"
#include "core/vibration_features.hpp"
#include "device/sync.hpp"
#include "device/wearable.hpp"

namespace vibguard::core {

enum class DefenseMode {
  kFull,
  kVibrationBaseline,
  kAudioBaseline,
};

/// Human-readable mode name.
const char* mode_name(DefenseMode mode);

struct DefenseConfig {
  DefenseMode mode = DefenseMode::kFull;
  device::WearableConfig wearable = device::fossil_gen5();
  device::SyncConfig sync;
  VibrationFeatureConfig features;
  double detection_threshold = 0.50;

  /// Minimum total duration of extracted sensitive-phoneme segments; when
  /// segmentation yields less (very short commands), the whole command is
  /// scored instead.
  double min_segment_seconds = 0.65;

  /// When set, the wearer performs this activity during the replay-capture
  /// step: activity-specific body motion is superimposed on the vibration
  /// signals (robustness knob; the ≤5 Hz crop is designed to remove it).
  std::optional<sensors::Activity> user_activity;

  // Audio-baseline spectrogram parameters (16 kHz recordings).
  std::size_t audio_window = 512;
  std::size_t audio_hop = 128;

  /// Signal-quality gate (see core/quality.hpp). The default permissive
  /// gate only halts on inputs no pipeline could score (non-finite samples,
  /// dead channels, too-short captures); healthy trials score bit-identical
  /// whether the gate is on or off.
  QualityConfig quality;
};

/// One command to score through the batch API. The signals are borrowed
/// (must outlive the score_batch call); the rng is owned so every request
/// carries its independent, reproducible stream.
struct ScoreRequest {
  const Signal* va = nullptr;
  const Signal* wearable = nullptr;
  const Segmenter* segmenter = nullptr;  ///< required in kFull mode
  Rng rng;
  /// Optional per-request time budget (borrowed; null = unbounded).
  const Deadline* deadline = nullptr;
};

/// How one trial through the quality-aware scoring API ended.
enum class ScoreStatus {
  kOk,             ///< pipeline produced a real correlation score
  kIndeterminate,  ///< quality gate halted the run / degenerate features
  kError,          ///< a stage threw; the exception was captured per-trial
  kDeadlineExceeded,  ///< the trial's Deadline expired at a stage boundary
};

/// Human-readable status name.
const char* score_status_name(ScoreStatus status);

/// Structured per-trial outcome of the exception-safe scoring API. Exactly
/// one of the three shapes occurs:
///   kOk            — `score` is a real correlation in [-1, 1].
///   kIndeterminate — `score` is kIndeterminateScore; `reason` names the
///                    gate decision ("non_finite_samples", "too_short", …)
///                    or "degenerate_features"; `quality` has the details.
///   kError         — a stage threw; `reason` is the stage name and `error`
///                    the exception message. The batch continues.
///   kDeadlineExceeded — the request's Deadline expired before the pipeline
///                    finished; `score` is kIndeterminateScore and `reason`
///                    is "deadline_exceeded". The trial was cancelled
///                    cooperatively at a stage boundary, never mid-stage.
struct ScoreOutcome {
  ScoreStatus status = ScoreStatus::kOk;
  double score = kIndeterminateScore;
  const char* reason = "";   ///< static string; "" when kOk
  std::string error;         ///< exception message; empty unless kError
  QualityReport quality;     ///< the run's quality report (all statuses)

  bool ok() const { return status == ScoreStatus::kOk; }
};

/// The training-free thru-barrier attack detection system.
class DefenseSystem {
 public:
  explicit DefenseSystem(DefenseConfig config);

  const DefenseConfig& config() const { return config_; }
  const device::Wearable& wearable() const { return wearable_; }
  const VibrationFeatureExtractor& extractor() const { return extractor_; }
  const CorrelationDetector& detector() const { return detector_; }

  /// Scores one command: higher = more likely legitimate. `segmenter`
  /// supplies sensitive-phoneme ranges and is required in kFull mode
  /// (ignored in the baseline modes). `trace`, when non-null, receives
  /// intermediate artifacts and per-stage instrumentation. When the quality
  /// gate halts the run, or the features are degenerate, the return value
  /// is kIndeterminateScore (fails closed under a plain threshold test);
  /// use try_score for the structured outcome.
  double score(const Signal& va_recording, const Signal& wearable_recording,
               const Segmenter* segmenter, Rng& rng,
               PipelineTrace* trace = nullptr) const;

  /// Workspace overload: identical semantics and bit-identical scores, but
  /// all intermediate storage lives in the caller-owned `workspace`, so
  /// repeated calls allocate nothing once the workspace is warm. When
  /// `deadline` is non-null it is checked at every stage boundary; an
  /// expired run stops cooperatively, returns kIndeterminateScore and sets
  /// Workspace::deadline_expired (try_score surfaces the distinct status).
  /// A null deadline — the default — reads no clock at all.
  double score(const Signal& va_recording, const Signal& wearable_recording,
               const Segmenter* segmenter, Rng& rng, Workspace& workspace,
               PipelineTrace* trace = nullptr,
               const Deadline* deadline = nullptr) const;

  /// Exception-safe, quality-aware scoring: never throws for malformed
  /// inputs. Empty recordings, gate-halted runs and degenerate features
  /// yield kIndeterminate; a throwing stage yields kError with the stage
  /// name and message; an expired `deadline` yields kDeadlineExceeded.
  /// Healthy inputs score bit-identical to score().
  ScoreOutcome try_score(const Signal& va_recording,
                         const Signal& wearable_recording,
                         const Segmenter* segmenter, Rng& rng,
                         Workspace& workspace,
                         PipelineTrace* trace = nullptr,
                         const Deadline* deadline = nullptr) const;

  /// Scores `requests.size()` commands into `out` (same size required),
  /// reusing one workspace across the whole batch. Every trial ends in a
  /// structured ScoreOutcome, as from try_score: a bad trial never aborts
  /// the batch or poisons its neighbours. Each request's scoring draws only
  /// from its own rng copy, so results are independent of batch
  /// composition and order. When `stats` is non-null, per-stage aggregates
  /// over the batch are folded into it (`trace` may additionally capture
  /// the last request's artifacts).
  void score_batch(std::span<const ScoreRequest> requests,
                   std::span<ScoreOutcome> out, Workspace& workspace,
                   PipelineTrace* trace = nullptr,
                   PipelineStats* stats = nullptr) const;

  /// Parallel batch scoring over `pool`, with one workspace per pool worker
  /// (`workspaces.size()` must be >= max(1, pool.num_threads())). Outcomes
  /// are bit-identical to the serial overload at any thread count.
  void score_batch(std::span<const ScoreRequest> requests,
                   std::span<ScoreOutcome> out, ThreadPool& pool,
                   std::span<Workspace> workspaces) const;

  /// Full detection decision at the configured threshold.
  DetectionResult detect(const Signal& va_recording,
                         const Signal& wearable_recording,
                         const Segmenter* segmenter, Rng& rng,
                         PipelineTrace* trace = nullptr) const;

 private:
  DefenseConfig config_;
  device::Wearable wearable_;
  device::SyncChannel sync_;
  VibrationFeatureExtractor extractor_;
  CorrelationDetector detector_;
};

}  // namespace vibguard::core
