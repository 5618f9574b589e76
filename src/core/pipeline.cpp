#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"

namespace vibguard::core {

const char* mode_name(DefenseMode mode) {
  switch (mode) {
    case DefenseMode::kFull: return "full";
    case DefenseMode::kVibrationBaseline: return "vibration_baseline";
    case DefenseMode::kAudioBaseline: return "audio_baseline";
  }
  VIBGUARD_UNREACHABLE();
}

const char* score_status_name(ScoreStatus status) {
  switch (status) {
    case ScoreStatus::kOk: return "ok";
    case ScoreStatus::kIndeterminate: return "indeterminate";
    case ScoreStatus::kError: return "error";
    case ScoreStatus::kDeadlineExceeded: return "deadline_exceeded";
  }
  VIBGUARD_UNREACHABLE();
}

DefenseSystem::DefenseSystem(DefenseConfig config)
    : config_(std::move(config)),
      wearable_(config_.wearable),
      sync_(config_.sync),
      extractor_(config_.features),
      detector_(config_.detection_threshold) {}

double DefenseSystem::score(const Signal& va_recording,
                            const Signal& wearable_recording,
                            const Segmenter* segmenter, Rng& rng,
                            PipelineTrace* trace) const {
  // Workspace-less compatibility path: one warm workspace per thread keeps
  // the historical signature allocation-free too.
  static thread_local Workspace workspace;
  return score(va_recording, wearable_recording, segmenter, rng, workspace,
               trace);
}

double DefenseSystem::score(const Signal& va_recording,
                            const Signal& wearable_recording,
                            const Segmenter* segmenter, Rng& rng,
                            Workspace& workspace, PipelineTrace* trace,
                            const Deadline* deadline) const {
  VIBGUARD_REQUIRE(!va_recording.empty() && !wearable_recording.empty(),
                   "both recordings must be non-empty");
  VIBGUARD_REQUIRE(
      config_.mode != DefenseMode::kFull || segmenter != nullptr,
      "full mode requires a segmenter");

  PipelineContext ctx;
  ctx.config = &config_;
  ctx.wearable = &wearable_;
  ctx.sync = &sync_;
  ctx.extractor = &extractor_;
  ctx.detector = &detector_;
  ctx.va_in = &va_recording;
  ctx.wear_in = &wearable_recording;
  ctx.segmenter = segmenter;
  ctx.rng = &rng;
  ctx.ws = &workspace;
  ctx.trace = trace;
  ctx.deadline = deadline;

  if (trace != nullptr) trace->begin_run();
  workspace.quality.clear();
  workspace.current_stage = "";
  workspace.deadline_expired = false;

  using Clock = std::chrono::steady_clock;
  const auto run_start = Clock::now();
  std::size_t samples_in = va_recording.size() + wearable_recording.size();
  for (const Stage* stage : stage_sequence(config_.mode)) {
    // Cooperative cancellation: the budget is checked between stages only,
    // so an expired trial ends cleanly at a stage boundary (the workspace
    // holds no partial state the next run would observe) and a null
    // deadline costs nothing.
    if (deadline != nullptr && deadline->expired()) {
      workspace.deadline_expired = true;
      ctx.score = kIndeterminateScore;
      break;
    }
    const std::uint64_t allocs_before = allocation_count();
    const auto stage_start = Clock::now();
    ctx.stage_samples_out = 0;
    workspace.current_stage = stage->name();
    stage->run(ctx);
    const auto stage_end = Clock::now();
    if (trace != nullptr) {
      StageTrace record;
      record.name = stage->name();
      record.start_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(stage_start -
                                                                run_start)
              .count());
      record.wall_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(stage_end -
                                                                stage_start)
              .count());
      record.samples_in = samples_in;
      record.samples_out = ctx.stage_samples_out;
      record.allocations = allocation_count() - allocs_before;
      trace->stages.push_back(record);
    }
    samples_in = ctx.stage_samples_out;
    // The quality gate decided the trial cannot be scored trustworthily:
    // skip the remaining stages and report the sentinel.
    if (ctx.halted) {
      ctx.score = kIndeterminateScore;
      break;
    }
  }

  if (trace != nullptr) {
    trace->features_va = workspace.feat_va;
    trace->features_wearable = workspace.feat_wear;
    trace->quality = workspace.quality;
  }
  return ctx.score;
}

ScoreOutcome DefenseSystem::try_score(const Signal& va_recording,
                                      const Signal& wearable_recording,
                                      const Segmenter* segmenter, Rng& rng,
                                      Workspace& workspace,
                                      PipelineTrace* trace,
                                      const Deadline* deadline) const {
  ScoreOutcome outcome;
  // score() treats empty inputs as caller errors; here they are a
  // deployment reality (absent wearable capture, zero-length upload) and
  // map to a structured indeterminate outcome.
  if (va_recording.empty() || wearable_recording.empty()) {
    outcome.status = ScoreStatus::kIndeterminate;
    outcome.reason = "empty_input";
    outcome.quality.scoreable = false;
    outcome.quality.reason = "empty_input";
    return outcome;
  }
  workspace.current_stage = "precheck";  // config errors throw before stage 1
  // A throw before the stage driver's own clear() (e.g. a missing
  // segmenter) must not leak the previous trial's quality report — or its
  // deadline flag — out of a reused workspace.
  workspace.quality.clear();
  workspace.deadline_expired = false;
  try {
    const double s = score(va_recording, wearable_recording, segmenter, rng,
                           workspace, trace, deadline);
    outcome.quality = workspace.quality;
    if (workspace.deadline_expired) {
      outcome.status = ScoreStatus::kDeadlineExceeded;
      outcome.reason = "deadline_exceeded";
    } else if (is_indeterminate_score(s)) {
      outcome.status = ScoreStatus::kIndeterminate;
      outcome.reason = workspace.quality.scoreable
                           ? "degenerate_features"
                           : workspace.quality.reason;
    } else {
      outcome.status = ScoreStatus::kOk;
      outcome.score = s;
    }
  } catch (const std::exception& e) {
    outcome.status = ScoreStatus::kError;
    outcome.reason = workspace.current_stage;
    outcome.error = e.what();
    outcome.quality = workspace.quality;
  }
  return outcome;
}

void DefenseSystem::score_batch(std::span<const ScoreRequest> requests,
                                std::span<ScoreOutcome> out,
                                Workspace& workspace, PipelineTrace* trace,
                                PipelineStats* stats) const {
  VIBGUARD_REQUIRE(out.size() == requests.size(),
                   "output span must match the request count");
  // Stats need per-stage records even when the caller did not ask for a
  // trace; route through a local reusable one in that case.
  PipelineTrace local_trace;
  PipelineTrace* sink =
      trace != nullptr ? trace : (stats != nullptr ? &local_trace : nullptr);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ScoreRequest& req = requests[i];
    Rng rng = req.rng;  // each request scores from its own stream copy
    out[i] = try_score(*req.va, *req.wearable, req.segmenter, rng, workspace,
                       sink, req.deadline);
    if (stats != nullptr) stats->add(*sink);
  }
}

void DefenseSystem::score_batch(std::span<const ScoreRequest> requests,
                                std::span<ScoreOutcome> out, ThreadPool& pool,
                                std::span<Workspace> workspaces) const {
  VIBGUARD_REQUIRE(out.size() == requests.size(),
                   "output span must match the request count");
  const std::size_t needed = std::max<std::size_t>(1, pool.num_threads());
  VIBGUARD_REQUIRE(workspaces.size() >= needed,
                   "need one workspace per pool worker");
  pool.parallel_for_indexed(
      requests.size(), [&](std::size_t worker, std::size_t i) {
        const ScoreRequest& req = requests[i];
        Rng rng = req.rng;
        out[i] = try_score(*req.va, *req.wearable, req.segmenter, rng,
                           workspaces[worker], nullptr, req.deadline);
      });
}

DetectionResult DefenseSystem::detect(const Signal& va_recording,
                                      const Signal& wearable_recording,
                                      const Segmenter* segmenter, Rng& rng,
                                      PipelineTrace* trace) const {
  const double s =
      score(va_recording, wearable_recording, segmenter, rng, trace);
  return DetectionResult{s, s < detector_.threshold()};
}

}  // namespace vibguard::core
