// Streaming/anytime scoring: the push counterpart of the batch stage graph
// (core/pipeline.hpp).
//
// The batch pipeline scores a trial only after the full command pair is
// captured. StreamingPipeline instead accepts interleaved audio frames of
// any size — down to single samples — and buffers both channels. A
// non-finite sample, the one fatal defect more data can never cure, fails
// the stream closed the moment it arrives.
//
// In kFull mode the pipeline also renders anytime evidence. Once a warm-up
// prefix has arrived it estimates the delay once, then walks a fixed grid of
// aligned blocks. At each block boundary a checkpoint runs the batch
// capture, feature and correlate stages (core/stages.hpp) on two prefix
// pairs:
//
//   - the sensitive-phoneme segments of the aligned prefix, concatenated —
//     the *provisional* score, the paper's discriminator, which has to wait
//     for sensitive phonemes to be spoken;
//   - the whole aligned prefix — the *coarse* score, weaker but available
//     from the first block of every trial.
//
// Given calibrated ConfidenceModels the two are fused into one posterior
// attack probability (log-odds summed, each shrunk by its frame count). A
// stopping rule turns that posterior into an anytime verdict ("confident
// it's an attack after 40% of the frames"), letting a serving caller stop
// consuming the command early. Baseline modes have no anytime evidence: they
// stream to the exact finalize only.
//
// The batch-compatibility invariant: finalize() in the default kExactBatch
// mode re-scores the buffered signals through DefenseSystem::try_score with
// an untouched copy of the begin()-time rng. A stream run to completion is
// therefore bit-identical to batch scoring of the same signals for ANY push
// schedule — the checkpoints influence only *when* a verdict can be
// rendered, never what the final score is. (Several batch steps are
// inherently global — full-signal sync, the zero-phase high-pass,
// normalize-by-max, the whole-command segment fallback — so checkpoint
// scores live on their own scale; eval/confidence calibrates both scales
// onto posteriors.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "core/pipeline.hpp"
#include "core/segmentation.hpp"
#include "core/trace.hpp"
#include "core/vibration_features.hpp"

namespace vibguard::core {

/// Maps a (provisional or batch) correlation score to a calibrated
/// posterior probability that the trial is an attack. Implemented by
/// eval::ScoreCalibration; abstract here because core cannot depend on eval.
class ConfidenceModel {
 public:
  virtual ~ConfidenceModel() = default;

  /// P(attack | score), in [0, 1]. Must be monotone non-increasing in the
  /// score (higher correlation = more legitimate) so that thresholding the
  /// posterior is equivalent to thresholding the score.
  virtual double posterior_attack(double score) const = 0;
};

/// Early-exit policy evaluated at block boundaries (kFull mode only).
///
/// The posterior it thresholds combines up to two calibrated evidence
/// channels (see StreamStatus). Each channel's log-odds is capped and
/// shrunk toward even by its feature-frame count, and no boundary may exit
/// before a minimum evidence horizon; the constants live in streaming.cpp.
struct StoppingRule {
  bool enabled = false;

  /// Posterior thresholds: exit as attack when posterior_attack >= the
  /// first, as accept when (1 - posterior_attack) >= the second.
  double attack_confidence = 0.97;
  double accept_confidence = 0.97;

  /// Calibrated posterior source for the provisional (segment) score
  /// (borrowed; required when enabled).
  const ConfidenceModel* confidence = nullptr;

  /// Optional second calibration for the whole-prefix (coarse) score; when
  /// null that evidence channel is ignored.
  const ConfidenceModel* coarse_confidence = nullptr;
};

/// Where a stream currently stands (or ended).
enum class StreamVerdict {
  kPending,      ///< still accumulating; no early verdict yet
  kAttackEarly,  ///< stopping rule fired on the attack side
  kAcceptEarly,  ///< stopping rule fired on the accept side
  kFailedClosed, ///< mid-stream quality failure (non-finite samples)
  kCompleted,    ///< finalize() ran without an early exit
};

/// Per-push status report.
struct StreamStatus {
  StreamVerdict verdict = StreamVerdict::kPending;

  /// kFull only: the latest segment checkpoint's correlation (the anytime
  /// counterpart of the batch pipeline's phoneme-selected correlation);
  /// kIndeterminateScore until the first one (or while degenerate).
  double provisional_score = kIndeterminateScore;

  /// kFull only: the latest whole-prefix checkpoint's correlation (no
  /// phoneme selection — the vibration-baseline view). Less discriminative
  /// than the segment score but available from the first block onward for
  /// every trial, so it powers the earliest exits.
  double coarse_score = kIndeterminateScore;

  /// Combined posterior over the attached evidence channels (see
  /// StoppingRule); 0 until a model is attached and evidence evaluated.
  double posterior_attack = 0.0;

  std::size_t blocks = 0;         ///< aligned blocks consumed so far
  std::size_t paired_frames = 0;  ///< segment-evidence feature frames
  std::size_t coarse_frames = 0;  ///< whole-prefix evidence frames
};

/// Result of finalize().
struct StreamOutcome {
  /// The authoritative structured outcome. For a completed kExactBatch
  /// stream this is bit-identical to DefenseSystem::try_score on the same
  /// signals; for an early exit it carries the provisional score.
  ScoreOutcome outcome;

  StreamVerdict verdict = StreamVerdict::kCompleted;
  bool early_exit = false;

  /// The anytime path's last scores/posterior (also meaningful for
  /// completed streams: it is what the anytime layer believed).
  double provisional_score = kIndeterminateScore;
  double coarse_score = kIndeterminateScore;
  double posterior_attack = 0.0;

  std::size_t pushed_va_samples = 0;
  std::size_t blocks = 0;
};

struct StreamingConfig {
  StoppingRule stop;

  /// What finalize() does when no early exit happened:
  ///   kExactBatch  — re-score the buffered signals through the batch
  ///                  pipeline (bit-identical to DefenseSystem::score);
  ///   kProvisional — report the last checkpoint's score as-is (cheap; used
  ///                  by benchmarks and the stream-sweep's anytime arm;
  ///                  kFull mode only).
  enum class Finalize { kExactBatch, kProvisional };
  Finalize finalize = Finalize::kExactBatch;
};

/// The push pipeline. Reusable: begin() resets all carried state while
/// retaining heap capacity, so a warm pipeline streams allocation-free at
/// steady state. Not thread-safe; one instance per scoring thread.
class StreamingPipeline {
 public:
  /// `system` is borrowed and must outlive the pipeline.
  explicit StreamingPipeline(const DefenseSystem& system,
                             StreamingConfig config = {});

  const StreamingConfig& config() const { return config_; }

  /// Replaces the streaming configuration. Must not be called between
  /// begin() and finalize(); takes effect at the next begin().
  void set_config(const StreamingConfig& config);

  /// Starts a new stream. Both channels must share `sample_rate` (the batch
  /// pipeline requires this too). `rng` is copied: one untouched copy seeds
  /// the exact finalize pass (bit-identity with batch), and fixed forks
  /// drive the checkpoint captures. `segmenter` is required in kFull mode.
  /// Baseline modes reject an armed stopping rule and a kProvisional
  /// finalize (InvalidArgument): they have no anytime evidence. `trace`,
  /// when non-null, accumulates one record per push plus the finalize
  /// pass's batch stage records; `deadline` is checked at push and block
  /// boundaries.
  void begin(double sample_rate, const Segmenter* segmenter, const Rng& rng,
             PipelineTrace* trace = nullptr,
             const Deadline* deadline = nullptr);

  /// Pushes one interleaved frame pair (either span may be empty — the
  /// channels need not advance in lockstep; when both are empty the call is
  /// a pure no-op that leaves buffer/trace/block state untouched). Returns
  /// the post-push status.
  StreamStatus push(std::span<const double> va,
                    std::span<const double> wearable);

  /// Current status without pushing.
  StreamStatus status() const;

  /// Ends the stream and renders the final outcome (see StreamOutcome).
  /// Idempotent: calling it again before the next begin() returns the same
  /// cached outcome without re-running the batch rescore or re-appending
  /// trace records. The pipeline stays reusable: call begin() for the next
  /// stream.
  StreamOutcome finalize();

 private:
  void process_blocks();
  void process_one_block(std::size_t block);
  double checkpoint(const Signal& va, const Signal& wearable,
                    std::uint64_t fork_label, std::size_t& frames);
  void evaluate_rule();
  void record_push(const char* name, std::uint64_t start_ns,
                   std::uint64_t allocs_before, std::size_t samples_in,
                   std::size_t samples_out);

  const DefenseSystem* system_;
  StreamingConfig config_;
  VibrationFeatureExtractor prov_extractor_;  ///< checkpoint features

  // Per-stream state (reset by begin()).
  bool active_ = false;
  bool finalized_ = false;        ///< a finalize() outcome is cached
  StreamOutcome last_outcome_;    ///< returned by repeated finalize()
  const Segmenter* segmenter_ = nullptr;
  PipelineTrace* trace_ = nullptr;
  const Deadline* deadline_ = nullptr;
  Rng base_rng_;  ///< untouched begin()-time copy; forked per checkpoint
  double rate_ = 0.0;
  std::uint64_t run_start_ns_ = 0;

  Signal va_buf_;    ///< everything pushed on the VA channel
  Signal wear_buf_;  ///< everything pushed on the wearable channel
  bool non_finite_ = false;  ///< a non-finite sample arrived

  // Anytime path (kFull only).
  bool delay_estimated_ = false;
  std::size_t va_begin_ = 0;    ///< alignment trim (front of VA)
  std::size_t wear_begin_ = 0;  ///< alignment trim (front of wearable)
  std::size_t blocks_done_ = 0;
  std::size_t paired_frames_ = 0;
  std::size_t coarse_frames_ = 0;
  StreamVerdict verdict_ = StreamVerdict::kPending;
  double provisional_ = kIndeterminateScore;
  double coarse_ = kIndeterminateScore;
  double posterior_ = 0.0;

  // Reusable storage (capacity retained across streams).
  Signal prefix_va_;    ///< aligned VA prefix up to the current block
  Signal prefix_wear_;  ///< aligned wearable prefix up to the current block
  std::vector<SampleRange> ranges_;  ///< per-block segmentation query
  Signal seg_va_;       ///< concatenated sensitive segments (VA)
  Signal seg_wear_;     ///< concatenated sensitive segments (wearable)
  Workspace workspace_;           ///< checkpoint and finalize storage
  PipelineTrace finalize_trace_;  ///< finalize batch pass records
};

}  // namespace vibguard::core
