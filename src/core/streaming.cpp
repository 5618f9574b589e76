#include "core/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "core/quality.hpp"
#include "core/stages.hpp"
#include "device/sync.hpp"

namespace vibguard::core {
namespace {

/// Aligned block size in VA samples: the checkpoint cadence, 128 ms at
/// 16 kHz. The grid is fixed by absolute sample count, so checkpoint scores
/// do not depend on the push schedule. Every checkpoint re-captures its
/// whole prefix, so a stream's checkpoint work is inversely proportional to
/// the block size.
constexpr std::size_t kBlockSamples = 2048;

/// Prefix for the one-shot delay estimate: longer than the sync
/// cross-correlation search window (0.3 s by default), so the prefix holds
/// the lag peak the whole-signal estimate finds.
constexpr double kSyncWarmupS = 0.32;

/// STFT grid of the checkpoint features. The batch extractor's 64/16
/// windows need 0.32 s of 200 Hz vibration per frame, too slow for anytime
/// verdicts; 16/4 emits a frame every 20 ms. Checkpoint scores are
/// calibrated on their own scale (eval/confidence), so they can trade
/// frequency for time resolution. The other extractor settings (high-pass,
/// crop, normalization) follow the batch feature config.
constexpr std::size_t kProvisionalWindow = 16;
constexpr std::size_t kProvisionalHop = 4;

/// No exit before this evidence horizon (seconds of the VA timeline) and
/// this many feature frames in the better-populated evidence channel: a
/// guard against verdicts from the first block or two. On the block grid
/// the first boundary past both is block 2 (block 1 carries 3 coarse
/// frames).
constexpr double kMinStreamS = 0.25;
constexpr std::size_t kMinFrames = 8;

/// Log-odds shrinkage prior in frames: a channel's log-odds is weighted by
/// frames / (frames + prior), so a correlation estimated from few feature
/// frames carries proportionally less weight (2/3 at 8 frames).
constexpr double kFramesPrior = 4.0;

/// Per-channel log-odds cap before fusion. The calibrations are Gaussian
/// fits whose tails are not trustworthy: one channel mapping a moderately
/// unusual score to a posterior of 1-1e-6 must not overrule the other
/// channel's disagreement. With the cap, a fused posterior beyond
/// sigmoid(3) ≈ 0.95 requires *both* channels on the same side —
/// corroboration, not tail extrapolation — which is also why one confident
/// boundary is enough to exit.
constexpr double kMaxChannelLogit = 3.0;

/// Fork labels of the two checkpoint captures. Each is constant, so every
/// checkpoint replays the same draw stream over a longer prefix — a pure
/// function of the prefix — and the two evidence channels draw independent
/// capture noise.
constexpr std::uint64_t kSegmentLabel = 0x53747242ULL;  // "StrB"
constexpr std::uint64_t kCoarseLabel = 0x53747243ULL;   // "StrC"

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

VibrationFeatureConfig provisional_features(const DefenseSystem& system) {
  VibrationFeatureConfig f = system.config().features;
  f.window_size = kProvisionalWindow;
  f.hop = kProvisionalHop;
  return f;
}

/// Log-odds of a posterior, clamped away from the infinities a saturated
/// calibration produces, then capped at kMaxChannelLogit.
double channel_logit(double p) {
  p = std::clamp(p, 1e-12, 1.0 - 1e-12);
  return std::clamp(std::log(p / (1.0 - p)), -kMaxChannelLogit,
                    kMaxChannelLogit);
}

/// Evidence weight of a correlation estimated from `frames` feature frames.
double evidence_weight(std::size_t frames) {
  return static_cast<double>(frames) /
         (static_cast<double>(frames) + kFramesPrior);
}

}  // namespace

StreamingPipeline::StreamingPipeline(const DefenseSystem& system,
                                     StreamingConfig config)
    : system_(&system),
      config_(config),
      prov_extractor_(provisional_features(system)) {}

void StreamingPipeline::set_config(const StreamingConfig& config) {
  VIBGUARD_REQUIRE(!active_, "cannot reconfigure an active stream");
  config_ = config;
}

void StreamingPipeline::begin(double sample_rate, const Segmenter* segmenter,
                              const Rng& rng, PipelineTrace* trace,
                              const Deadline* deadline) {
  VIBGUARD_REQUIRE(sample_rate > 0.0, "sample rate must be positive");
  const bool full = system_->config().mode == DefenseMode::kFull;
  VIBGUARD_REQUIRE(!full || segmenter != nullptr,
                   "full mode requires a segmenter");
  VIBGUARD_REQUIRE(
      full || (!config_.stop.enabled &&
               config_.finalize == StreamingConfig::Finalize::kExactBatch),
      "baseline modes have no anytime evidence: stream them to the exact "
      "finalize");
  VIBGUARD_REQUIRE(!config_.stop.enabled || config_.stop.confidence != nullptr,
                   "an enabled stopping rule needs a ConfidenceModel");
  active_ = true;
  finalized_ = false;
  segmenter_ = segmenter;
  trace_ = trace;
  deadline_ = deadline;
  base_rng_ = rng;
  rate_ = sample_rate;
  run_start_ns_ = now_ns();

  va_buf_.reset(sample_rate);
  wear_buf_.reset(sample_rate);
  non_finite_ = false;

  delay_estimated_ = false;
  va_begin_ = 0;
  wear_begin_ = 0;
  blocks_done_ = 0;
  paired_frames_ = 0;
  coarse_frames_ = 0;
  verdict_ = StreamVerdict::kPending;
  provisional_ = kIndeterminateScore;
  coarse_ = kIndeterminateScore;
  posterior_ = 0.0;
  seg_va_.reset(sample_rate);
  seg_wear_.reset(sample_rate);
  if (trace_ != nullptr) trace_->begin_run();
}

void StreamingPipeline::record_push(const char* name, std::uint64_t start_ns,
                                    std::uint64_t allocs_before,
                                    std::size_t samples_in,
                                    std::size_t samples_out) {
  if (trace_ == nullptr) return;
  StageTrace record;
  record.name = name;
  record.start_us = (start_ns - run_start_ns_) / 1000;
  record.wall_us = (now_ns() - start_ns) / 1000;
  record.samples_in = samples_in;
  record.samples_out = samples_out;
  record.allocations = allocation_count() - allocs_before;
  trace_->stages.push_back(record);
}

StreamStatus StreamingPipeline::push(std::span<const double> va,
                                     std::span<const double> wearable) {
  VIBGUARD_REQUIRE(active_, "push before begin()");
  // A zero-length push is a pure no-op: no trace record, no deadline or
  // block work — the stream state is exactly as if the call never happened
  // (callers polling with empty frames must not perturb the per-push
  // accounting).
  if (va.empty() && wearable.empty()) return status();

  // Ingest: buffer everything (the exact finalize pass needs the complete
  // signals) and note whether a non-finite sample arrived.
  {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t allocs = allocation_count();
    va_buf_.append(va);
    wear_buf_.append(wearable);
    const auto finite = [](double x) { return std::isfinite(x); };
    non_finite_ = non_finite_ || !std::all_of(va.begin(), va.end(), finite) ||
                  !std::all_of(wearable.begin(), wearable.end(), finite);
    record_push("stream_ingest", t0, allocs, va.size() + wearable.size(),
                va_buf_.size() + wear_buf_.size());
  }

  // Fail closed mid-stream on the one gated defect that is monotone (more
  // data can never cure it): non-finite contamination. Everything else
  // (too-short, low-signal, clipping ratios...) can only be judged on the
  // complete capture.
  if (verdict_ == StreamVerdict::kPending && non_finite_ &&
      (fatal_issue_mask(system_->config().quality.gate) & kIssueNonFinite) !=
          0) {
    verdict_ = StreamVerdict::kFailedClosed;
  }

  if (verdict_ == StreamVerdict::kPending &&
      system_->config().mode == DefenseMode::kFull &&
      (deadline_ == nullptr || !deadline_->expired())) {
    const std::size_t before = blocks_done_;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t allocs = allocation_count();
    process_blocks();
    if (blocks_done_ != before) {
      record_push("stream_score", t0, allocs,
                  (blocks_done_ - before) * kBlockSamples, paired_frames_);
    }
  }
  return status();
}

StreamStatus StreamingPipeline::status() const {
  StreamStatus s;
  s.verdict = verdict_;
  s.provisional_score = provisional_;
  s.coarse_score = coarse_;
  s.posterior_attack = posterior_;
  s.blocks = blocks_done_;
  s.paired_frames = paired_frames_;
  s.coarse_frames = coarse_frames_;
  return s;
}

void StreamingPipeline::process_blocks() {
  // One-shot delay estimate over the warm-up prefix: the batch pipeline
  // cross-correlates the whole pair, which a stream cannot do; a prefix
  // longer than the sync search window captures the same lag peak.
  if (!delay_estimated_) {
    const auto warmup =
        static_cast<std::size_t>(std::max(1.0, kSyncWarmupS * rate_));
    if (va_buf_.size() < warmup || wear_buf_.size() < warmup) return;
    prefix_va_.assign_slice(va_buf_, 0, warmup);
    prefix_wear_.assign_slice(wear_buf_, 0, warmup);
    const double delay_s =
        device::SyncChannel(system_->config().sync)
            .estimate_delay_s(prefix_va_, prefix_wear_,
                              workspace_.scratch.corr);
    // Same trim rule as SyncChannel::synchronize_into: positive shift drops
    // the samples the wearable missed from the VA front.
    const auto shift =
        static_cast<std::ptrdiff_t>(std::llround(delay_s * rate_));
    if (shift > 0) {
      va_begin_ = static_cast<std::size_t>(shift);
    } else if (shift < 0) {
      wear_begin_ = static_cast<std::size_t>(-shift);
    }
    delay_estimated_ = true;
    if (trace_ != nullptr) trace_->estimated_delay_s = delay_s;
  }

  const std::size_t avail_va =
      va_buf_.size() > va_begin_ ? va_buf_.size() - va_begin_ : 0;
  const std::size_t avail_wear =
      wear_buf_.size() > wear_begin_ ? wear_buf_.size() - wear_begin_ : 0;
  const std::size_t blocks = std::min(avail_va, avail_wear) / kBlockSamples;
  while (blocks_done_ < blocks && verdict_ == StreamVerdict::kPending) {
    if (deadline_ != nullptr && deadline_->expired()) return;
    process_one_block(blocks_done_);
    ++blocks_done_;
    evaluate_rule();
  }
}

void StreamingPipeline::process_one_block(std::size_t block) {
  // Segment evidence: query the segmenter over the aligned VA prefix up to
  // this block's end and append the parts of the block that sensitive
  // phonemes cover to the segment prefix. Ranges over a growing prefix only
  // ever extend at the tail (the oracle clamps alignment spans to the
  // prefix), so earlier blocks already appended everything before `lo0`.
  // Unlike SegmentStage there is no whole-command fallback: a stream cannot
  // know the final segment total, so uncovered content never reaches a
  // checkpoint (the rule waits for more frames).
  const std::size_t lo0 = block * kBlockSamples;
  const std::size_t hi0 = lo0 + kBlockSamples;
  const std::size_t seg_before = seg_va_.size();
  prefix_va_.assign_slice(va_buf_, va_begin_, va_begin_ + hi0);
  segmenter_->segment_into(prefix_va_, va_begin_, ranges_);
  for (const SampleRange& r : ranges_) {
    const std::size_t lo = std::max(r.begin, lo0);
    const std::size_t hi = std::min(r.end, hi0);
    if (lo >= hi) continue;
    seg_va_.append(va_buf_.samples().subspan(va_begin_ + lo, hi - lo));
    seg_wear_.append(wear_buf_.samples().subspan(wear_begin_ + lo, hi - lo));
  }
  if (seg_va_.size() > seg_before) {
    provisional_ =
        checkpoint(seg_va_, seg_wear_, kSegmentLabel, paired_frames_);
  }

  // Coarse evidence: the whole aligned prefix, without phoneme selection.
  // Weaker per frame (the paper's motivation for segmentation), but it does
  // not wait for sensitive phonemes, so it makes exits possible before the
  // command's sensitive content has been spoken.
  prefix_wear_.assign_slice(wear_buf_, wear_begin_, wear_begin_ + hi0);
  coarse_ = checkpoint(prefix_va_, prefix_wear_, kCoarseLabel, coarse_frames_);
}

double StreamingPipeline::checkpoint(const Signal& va, const Signal& wearable,
                                     std::uint64_t fork_label,
                                     std::size_t& frames) {
  // The batch capture, feature and correlate stages over the prefix pair,
  // on the checkpoint feature grid. Capturing the prefix whole rather than
  // chunk by chunk keeps the 200 Hz vibration stream free of per-chunk
  // resampler transients, which would destroy the score's discrimination.
  Rng rng = base_rng_.fork(fork_label);
  PipelineContext ctx;
  ctx.config = &system_->config();
  ctx.wearable = &system_->wearable();
  ctx.extractor = &prov_extractor_;
  ctx.detector = &system_->detector();
  ctx.rng = &rng;
  ctx.ws = &workspace_;
  ctx.cur_va = &va;
  ctx.cur_wear = &wearable;
  VibrationCaptureStage::instance().run(ctx);
  FeatureStage::instance().run(ctx);
  CorrelateStage::instance().run(ctx);
  frames = std::min(workspace_.feat_va.frames(), workspace_.feat_wear.frames());
  return ctx.score;
}

void StreamingPipeline::evaluate_rule() {
  // Fuse the available calibrated evidence channels: sum of per-channel
  // capped log-odds, each shrunk toward even by its frame count.
  const StoppingRule& rule = config_.stop;
  double logit = 0.0;
  bool have_evidence = false;
  if (rule.confidence != nullptr && !is_indeterminate_score(provisional_)) {
    logit += evidence_weight(paired_frames_) *
             channel_logit(rule.confidence->posterior_attack(provisional_));
    have_evidence = true;
  }
  if (rule.coarse_confidence != nullptr && !is_indeterminate_score(coarse_)) {
    logit += evidence_weight(coarse_frames_) *
             channel_logit(rule.coarse_confidence->posterior_attack(coarse_));
    have_evidence = true;
  }
  if (!have_evidence) return;
  posterior_ = 1.0 / (1.0 + std::exp(-logit));

  // Gate on the EVIDENCE horizon — the end of this boundary's block on the
  // VA timeline — not on how many samples happen to be buffered. When the
  // sync warm-up releases several backlogged blocks inside one push, the
  // early boundaries carry early horizons and fail the gate individually.
  const double evidence_s =
      static_cast<double>(va_begin_ + blocks_done_ * kBlockSamples) / rate_;
  if (!rule.enabled || evidence_s < kMinStreamS ||
      std::max(paired_frames_, coarse_frames_) < kMinFrames) {
    return;
  }
  if (posterior_ >= rule.attack_confidence) {
    verdict_ = StreamVerdict::kAttackEarly;
  } else if (1.0 - posterior_ >= rule.accept_confidence) {
    verdict_ = StreamVerdict::kAcceptEarly;
  }
}

StreamOutcome StreamingPipeline::finalize() {
  if (!active_) {
    // Idempotent: a second finalize() returns the cached outcome of the
    // first without re-running the batch rescore or appending anything to
    // the trace (which would double-count PipelineStats trials downstream).
    VIBGUARD_REQUIRE(finalized_, "finalize before begin()");
    return last_outcome_;
  }
  active_ = false;
  finalized_ = true;

  StreamOutcome out;
  out.verdict =
      verdict_ == StreamVerdict::kPending ? StreamVerdict::kCompleted
                                          : verdict_;
  out.early_exit = verdict_ == StreamVerdict::kAttackEarly ||
                   verdict_ == StreamVerdict::kAcceptEarly;
  out.provisional_score = provisional_;
  out.coarse_score = coarse_;
  out.posterior_attack = posterior_;
  out.pushed_va_samples = va_buf_.size();
  out.blocks = blocks_done_;

  const bool exact_pass =
      !out.early_exit && (config_.finalize == StreamingConfig::Finalize::
                              kExactBatch ||
                          verdict_ == StreamVerdict::kFailedClosed);
  if (exact_pass) {
    // The batch-compatibility pass: re-score the accumulated buffers with
    // an untouched copy of the begin()-time rng. Bit-identical to batch
    // try_score on the same signals for any push schedule. A failed-closed
    // stream takes this path too — the batch quality gate halts before any
    // expensive stage and produces the authoritative structured report.
    Rng rng = base_rng_;
    out.outcome = system_->try_score(
        va_buf_, wear_buf_, segmenter_, rng, workspace_,
        trace_ != nullptr ? &finalize_trace_ : nullptr, deadline_);
    if (trace_ != nullptr) {
      // Fold the batch pass's records and artifacts after the accumulated
      // per-push records (finalize_trace_ begin_run()s itself inside
      // score(), which is why the stream cannot hand it the user trace).
      trace_->append(finalize_trace_);
      trace_->estimated_delay_s = finalize_trace_.estimated_delay_s;
      trace_->num_ranges = finalize_trace_.num_ranges;
      trace_->segment_seconds = finalize_trace_.segment_seconds;
      trace_->quality = finalize_trace_.quality;
      std::swap(trace_->features_va, finalize_trace_.features_va);
      std::swap(trace_->features_wearable, finalize_trace_.features_wearable);
    }
    last_outcome_ = out;
    return out;
  }

  // Anytime outcome (early exit or kProvisional finalize): the last
  // checkpoint's score with a quality report over the buffered signals.
  assess_pair(va_buf_, wear_buf_, system_->config().quality,
              out.outcome.quality);
  if (is_indeterminate_score(provisional_)) {
    out.outcome.status = ScoreStatus::kIndeterminate;
    out.outcome.reason = out.outcome.quality.scoreable
                             ? "degenerate_features"
                             : out.outcome.quality.reason;
    out.outcome.score = kIndeterminateScore;
  } else {
    out.outcome.status = ScoreStatus::kOk;
    out.outcome.score = provisional_;
  }
  if (trace_ != nullptr) trace_->quality = out.outcome.quality;
  last_outcome_ = out;
  return out;
}

}  // namespace vibguard::core
