#include "traced_pipeline.hpp"

#include <cstring>

#include "common/alloc_counter.hpp"
#include "core/detector.hpp"

namespace vgbench {

namespace core = vibguard::core;

namespace {

/// "core.<stage>" with a lifetime as long as the process (span names are
/// borrowed pointers).
const char* span_name(const char* stage) {
  static std::map<std::string, std::string> names;
  auto it = names.find(stage);
  if (it == names.end()) {
    it = names.emplace(stage, std::string("core.") + stage).first;
  }
  return it->second.c_str();
}

constexpr const char* kStages[] = {"quality",  "sync",           "segment",
                                   "vib_capture", "features",
                                   "audio_features", "correlate"};

}  // namespace

TracedPipeline::TracedPipeline(const core::DefenseSystem& system)
    : system_(&system), sync_(system.config().sync) {}

double TracedPipeline::score(const vibguard::Signal& va,
                          const vibguard::Signal& wearable,
                          const core::Segmenter* segmenter,
                          vibguard::Rng& rng, core::Workspace& ws,
                          Tracer& tracer, std::uint64_t request,
                          StageCounts& counts) {
  core::PipelineContext ctx;
  ctx.config = &system_->config();
  ctx.wearable = &system_->wearable();
  ctx.sync = &sync_;
  ctx.extractor = &system_->extractor();
  ctx.detector = &system_->detector();
  ctx.va_in = &va;
  ctx.wear_in = &wearable;
  ctx.segmenter = segmenter;
  ctx.rng = &rng;
  ctx.ws = &ws;

  const vibguard::Signal* vib_va = nullptr;
  const vibguard::Signal* vib_wear = nullptr;
  vibguard::Rng vib_rng;
  {
    Scope command(tracer, "core.score", request);
    ws.quality.clear();
    ws.current_stage = "";
    ws.deadline_expired = false;
    for (const core::Stage* stage : core::stage_sequence(ctx.config->mode)) {
      const char* name = stage->name();
      const bool is_sync = std::strcmp(name, "sync") == 0;
      const bool is_segment = std::strcmp(name, "segment") == 0;
      if (is_sync) {
        counts.sync_samples_in +=
            static_cast<double>(va.size() + wearable.size());
      }
      if (is_segment) {
        counts.segment_in +=
            static_cast<double>(ctx.cur_va->size() + ctx.cur_wear->size());
      }
      if (std::strcmp(name, "vib_capture") == 0) {
        vib_va = ctx.cur_va;
        vib_wear = ctx.cur_wear;
        vib_rng = rng;
        counts.vib_samples_in +=
            static_cast<double>(ctx.cur_va->size() + ctx.cur_wear->size());
      }
      ctx.stage_samples_out = 0;
      ws.current_stage = name;
      {
        Scope s(tracer, span_name(name), request);
        const std::uint64_t allocs = vibguard::allocation_count();
        stage->run(ctx);
        counts.allocations += vibguard::allocation_count() - allocs;
      }
      if (is_segment) {
        counts.segment_out +=
            static_cast<double>(ctx.cur_va->size() + ctx.cur_wear->size());
      }
      if (std::strcmp(name, "features") == 0) {
        counts.feature_frames += static_cast<double>(ws.feat_va.frames());
      }
      if (ctx.halted) {
        ctx.score = core::kIndeterminateScore;
        break;
      }
    }
  }
  ++counts.commands;

  // The halves of vib_capture, timed on the stage's inputs (VA channel,
  // then wearable, as the stage does).
  if (vib_va != nullptr) {
    const auto& speaker = system_->wearable().speaker();
    const auto& accel = system_->wearable().accelerometer();
    for (const vibguard::Signal* in : {vib_va, vib_wear}) {
      {
        Scope s(tracer, "sensors.speaker", request);
        speaker.render_into(*in, side_rendered_, side_scratch_.cwork);
      }
      Scope s(tracer, "sensors.accel", request);
      accel.capture_into(side_rendered_, vib_rng, side_vibration_,
                         side_scratch_);
    }
  }
  return ctx.score;
}

void report_stage_metrics(const std::map<std::string, SpanTotals>& totals,
                          const StageCounts& counts, Report& report) {
  const double n = counts.commands > 0
                       ? static_cast<double>(counts.commands)
                       : 1.0;
  const auto self_of = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self);
  };
  const auto total_of = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total);
  };
  const double command_total = total_of("core.score");
  const double denom = command_total > 0.0 ? command_total : 1.0;
  for (const char* stage : kStages) {
    const std::string key = std::string("core.") + stage;
    report.set(key + ".ms", ns_to_ms(self_of(key)) / n);
    report.set(key + ".share", self_of(key) / denom);
  }
  report.set("core.overhead.share", self_of("core.score") / denom);
  report.set("sensors.speaker.ms", ns_to_ms(total_of("sensors.speaker")) / n);
  report.set("sensors.accel.ms", ns_to_ms(total_of("sensors.accel")) / n);
  report.set("core.sync.samples_in", counts.sync_samples_in / n);
  report.set("core.vib_capture.samples_in", counts.vib_samples_in / n);
  report.set("core.segment.kept_share",
             counts.segment_in > 0.0 ? counts.segment_out / counts.segment_in
                                     : 0.0);
  report.set("core.features.frames", counts.feature_frames / n);
  report.set("core.allocs_per_cmd", static_cast<double>(counts.allocations) / n);
}

}  // namespace vgbench
