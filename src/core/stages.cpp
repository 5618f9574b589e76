#include "core/stages.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"

namespace vibguard::core {
namespace {

// Whether this thread's captures split across its workspace's companion.
// A pool worker's siblings already fill the cores, and a one-core host has
// none to spare.
bool split_capture() {
  static const bool multicore = recommended_threads() >= 2;
  return multicore && !ThreadPool::on_worker();
}

}  // namespace

const QualityStage& QualityStage::instance() {
  static const QualityStage stage;
  return stage;
}

void QualityStage::run(PipelineContext& ctx) const {
  Workspace& ws = *ctx.ws;
  assess_pair(*ctx.va_in, *ctx.wear_in, ctx.config->quality, ws.quality);
  if (!ws.quality.scoreable) ctx.halted = true;
  // Pass-through for the instrumentation dataflow chain: the inputs reach
  // the next stage unmodified.
  ctx.stage_samples_out = ctx.va_in->size() + ctx.wear_in->size();
}

const SyncStage& SyncStage::instance() {
  static const SyncStage stage;
  return stage;
}

void SyncStage::run(PipelineContext& ctx) const {
  Workspace& ws = *ctx.ws;
  ctx.delay_s = ctx.sync->synchronize_into(*ctx.va_in, *ctx.wear_in,
                                           ws.va_sync, ws.wear_sync,
                                           ws.scratch.corr);
  ctx.timeline_offset = static_cast<std::size_t>(
      std::max(0.0, std::round(ctx.delay_s * ctx.va_in->sample_rate())));
  ctx.cur_va = &ws.va_sync;
  ctx.cur_wear = &ws.wear_sync;
  if (ctx.trace != nullptr) {
    ctx.trace->estimated_delay_s = ctx.delay_s;
    // Baseline modes score the whole synchronized command; SegmentStage
    // narrows this in kFull mode.
    ctx.trace->segment_seconds = ws.va_sync.duration();
  }

  // Post-alignment quality flags, routed through the same gate as the raw
  // input assessment. A delay estimate pinned at the edge of the
  // cross-correlation search window usually means the true offset lies
  // beyond it (e.g. severe clock drift) and the "alignment" is arbitrary;
  // an overlap shorter than the minimum duration cannot carry a score.
  const QualityConfig& qcfg = ctx.config->quality;
  const double rate = ctx.va_in->sample_rate();
  std::uint32_t extra = 0;
  if (ws.va_sync.duration() < qcfg.min_duration_s) extra |= kIssueTooShort;
  if (rate > 0.0 &&
      std::abs(ctx.delay_s) >= ctx.sync->config().max_search_s - 1.5 / rate) {
    extra |= kIssueDesync;
  }
  if (extra != 0) {
    ws.quality.issues |= extra;
    apply_gate(qcfg, ws.quality);
    if (!ws.quality.scoreable) ctx.halted = true;
  }
  ctx.stage_samples_out = ws.va_sync.size() + ws.wear_sync.size();
}

const SegmentStage& SegmentStage::instance() {
  static const SegmentStage stage;
  return stage;
}

void SegmentStage::run(PipelineContext& ctx) const {
  Workspace& ws = *ctx.ws;
  ctx.segmenter->segment_into(*ctx.cur_va, ctx.timeline_offset, ws.ranges);
  if (ctx.trace != nullptr) ctx.trace->num_ranges = ws.ranges.size();
  extract_ranges_into(*ctx.cur_va, ws.ranges, ws.va_seg);
  // If segmentation found nothing, or the command is so short that the
  // sensitive segments cannot fill an analysis window, fall back to the
  // whole command rather than rejecting outright.
  if (ws.va_seg.duration() >= ctx.config->min_segment_seconds) {
    extract_ranges_into(*ctx.cur_wear, ws.ranges, ws.wear_seg);
    ctx.cur_va = &ws.va_seg;
    ctx.cur_wear = &ws.wear_seg;
  }
  if (ctx.trace != nullptr) {
    ctx.trace->segment_seconds = ctx.cur_va->duration();
  }
  ctx.stage_samples_out = ctx.cur_va->size() + ctx.cur_wear->size();
}

const VibrationCaptureStage& VibrationCaptureStage::instance() {
  static const VibrationCaptureStage stage;
  return stage;
}

void VibrationCaptureStage::run(PipelineContext& ctx) const {
  Workspace& ws = *ctx.ws;
  const device::Wearable& wearable = *ctx.wearable;
  const auto& activity = ctx.config->user_activity;
  // VA stream first, wearable stream second — the rng draw order the
  // deterministic experiment runner depends on. Drawing both before either
  // realizes lets the two realize at once with the serial bits.
  const sensors::CaptureDraw va_draw =
      wearable.draw_capture(*ctx.cur_va, *ctx.rng, activity);
  const sensors::CaptureDraw wear_draw =
      wearable.draw_capture(*ctx.cur_wear, *ctx.rng, activity);
  const bool split = split_capture();
  dsp::Scratch& wear_scratch = split ? ws.wear_scratch : ws.scratch;
  auto realize_va = [&] {
    wearable.realize_capture(*ctx.cur_va, va_draw, ws.vib_va, ws.scratch);
  };
  auto realize_wear = [&] {
    wearable.realize_capture(*ctx.cur_wear, wear_draw, ws.vib_wear,
                             wear_scratch);
  };
  if (split) {
    ws.companion.run(realize_va, realize_wear);
  } else {
    realize_va();
    realize_wear();
  }
  ctx.cur_va = &ws.vib_va;
  ctx.cur_wear = &ws.vib_wear;
  ctx.stage_samples_out = ws.vib_va.size() + ws.vib_wear.size();
}

const FeatureStage& FeatureStage::instance() {
  static const FeatureStage stage;
  return stage;
}

void FeatureStage::run(PipelineContext& ctx) const {
  Workspace& ws = *ctx.ws;
  ctx.extractor->extract_into(*ctx.cur_va, ws.feat_va, ws.scratch);
  ctx.extractor->extract_into(*ctx.cur_wear, ws.feat_wear, ws.scratch);
  ctx.stage_samples_out =
      ws.feat_va.values().size() + ws.feat_wear.values().size();
}

const AudioFeatureStage& AudioFeatureStage::instance() {
  static const AudioFeatureStage stage;
  return stage;
}

void AudioFeatureStage::run(PipelineContext& ctx) const {
  Workspace& ws = *ctx.ws;
  const DefenseConfig& cfg = *ctx.config;
  dsp::stft_power_into(*ctx.cur_va, cfg.audio_window, cfg.audio_hop,
                       ws.feat_va);
  dsp::stft_power_into(*ctx.cur_wear, cfg.audio_window, cfg.audio_hop,
                       ws.feat_wear);
  ws.feat_va.normalize_by_max();
  ws.feat_wear.normalize_by_max();
  ctx.stage_samples_out =
      ws.feat_va.values().size() + ws.feat_wear.values().size();
}

const CorrelateStage& CorrelateStage::instance() {
  static const CorrelateStage stage;
  return stage;
}

void CorrelateStage::run(PipelineContext& ctx) const {
  Workspace& ws = *ctx.ws;
  ctx.score = ctx.detector->score(ws.feat_wear, ws.feat_va);
  ctx.stage_samples_out = 1;
}

std::span<const Stage* const> stage_sequence(DefenseMode mode) {
  static const Stage* const kFullSequence[] = {
      &QualityStage::instance(),          &SyncStage::instance(),
      &SegmentStage::instance(),          &VibrationCaptureStage::instance(),
      &FeatureStage::instance(),          &CorrelateStage::instance(),
  };
  static const Stage* const kVibrationSequence[] = {
      &QualityStage::instance(), &SyncStage::instance(),
      &VibrationCaptureStage::instance(), &FeatureStage::instance(),
      &CorrelateStage::instance(),
  };
  static const Stage* const kAudioSequence[] = {
      &QualityStage::instance(), &SyncStage::instance(),
      &AudioFeatureStage::instance(), &CorrelateStage::instance(),
  };
  switch (mode) {
    case DefenseMode::kFull: return kFullSequence;
    case DefenseMode::kVibrationBaseline: return kVibrationSequence;
    case DefenseMode::kAudioBaseline: return kAudioSequence;
  }
  VIBGUARD_UNREACHABLE();
}

}  // namespace vibguard::core
