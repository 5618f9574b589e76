// The streaming layer, measured in score_warm's traced run:
// core::StreamingPipeline with the stopping rule armed at the
// EXPERIMENTS.md operating point (exit confidence 0.95), calibrated with
// eval::ScoreCalibration on a held-out population, 1024-sample frames
// pushed back to back. Streaming is not an end-to-end workload of its own:
// its latency is bimodal (early exits vs. full streams) and the exit mix
// moves with the seed's population, so its p50/p99 spread across seeds
// was far above the benchmark's bounds (see README.md).
#include <algorithm>

#include "core/streaming.hpp"
#include "eval/confidence.hpp"
#include "workloads.hpp"

namespace vgbench {

namespace core = vibguard::core;
namespace eval = vibguard::eval;

namespace {

constexpr double kExitConfidence = 0.95;
constexpr std::size_t kFrameSamples = 1024;
constexpr std::size_t kCalibrationPerClass = 12;
/// The calibration population's seed: the calibration is part of the
/// deployed system, fitted once, so it does not vary with --seed.
constexpr std::uint64_t kCalibrationSeed = 0xca11b4a7ULL;

struct Streamed {
  core::StreamOutcome outcome;
  double fraction = 1.0;  ///< share of the VA samples pushed at the verdict
};

/// Pushes `trial` frame by frame until the pipeline renders a verdict,
/// then finalizes, as a serving caller does. With a tracer, each push and
/// the finalize get a span under one "core.stream" span.
Streamed stream_command(core::StreamingPipeline& pipeline, const Trial& trial,
                        Tracer& tracer, std::uint64_t request) {
  Scope command(tracer, "core.stream", request);
  const auto& va = trial.rec.va;
  const auto& wear = trial.rec.wearable;
  pipeline.begin(va.sample_rate(), &trial.segmenter, trial.rng);
  Streamed out;
  const std::size_t total = std::max(va.size(), wear.size());
  for (std::size_t offset = 0; offset < total; offset += kFrameSamples) {
    const auto frame_of = [&](const vibguard::Signal& s) {
      const std::size_t begin = std::min(offset, s.size());
      const std::size_t end = std::min(offset + kFrameSamples, s.size());
      return s.samples().subspan(begin, end - begin);
    };
    core::StreamStatus status;
    {
      Scope push(tracer, "core.stream.push", request);
      status = pipeline.push(frame_of(va), frame_of(wear));
    }
    if (status.verdict != core::StreamVerdict::kPending) {
      out.fraction = std::min(
          1.0, static_cast<double>(std::min(offset + kFrameSamples, va.size())) /
                   static_cast<double>(va.size()));
      break;
    }
  }
  Scope finalize(tracer, "core.stream.finalize", request);
  out.outcome = pipeline.finalize();
  return out;
}

std::size_t determinate(const std::vector<double>& xs) {
  return static_cast<std::size_t>(std::count_if(
      xs.begin(), xs.end(),
      [](double s) { return !core::is_indeterminate_score(s); }));
}

}  // namespace

void trace_streaming(const std::vector<Trial>& trials,
                     const std::vector<double>& batch_scores,
                     const core::DefenseSystem& system, Tracer& tracer,
                     Report& report) {
  // Calibration: the held-out population streamed to completion with the
  // rule disarmed, one logistic fit per score scale.
  Tracer untraced(false);
  const std::vector<Trial> calib = render_population(
      kCalibrationSeed, mixed_population(kCalibrationPerClass), nullptr,
      report);
  core::StreamingConfig cfg;
  cfg.finalize = core::StreamingConfig::Finalize::kExactBatch;
  core::StreamingPipeline pipeline(system, cfg);
  std::vector<double> pa, pl, ca, cl;
  for (const Trial& t : calib) {
    const Streamed s = stream_command(pipeline, t, untraced, 0);
    (t.rec.is_attack ? pa : pl).push_back(s.outcome.provisional_score);
    (t.rec.is_attack ? ca : cl).push_back(s.outcome.coarse_score);
  }
  eval::ScoreCalibration prov, coarse;
  if (determinate(pa) >= 2 && determinate(pl) >= 2) prov.fit(pa, pl);
  if (determinate(ca) >= 2 && determinate(cl) >= 2) coarse.fit(ca, cl);
  cfg.stop.enabled = true;
  cfg.stop.attack_confidence = kExitConfidence;
  cfg.stop.accept_confidence = kExitConfidence;
  cfg.stop.confidence = &prov;
  cfg.stop.coarse_confidence = coarse.fitted() ? &coarse : nullptr;
  pipeline.set_config(cfg);

  // One traced stream per command of the population.
  std::size_t early = 0;
  bool identical = true;
  std::vector<double> fractions;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Streamed s = stream_command(pipeline, trials[i], tracer, i);
    fractions.push_back(s.fraction);
    if (s.outcome.early_exit) {
      ++early;
    } else {
      // A stream run to completion must equal batch scoring.
      const double score = s.outcome.outcome.ok() ? s.outcome.outcome.score
                                                  : core::kIndeterminateScore;
      identical = identical && same_bits(score, batch_scores[i]);
    }
  }
  report.check(identical,
               "a stream run to completion differs from batch scoring");

  const auto totals = tracer.totals();
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals push = get("core.stream.push");
  const SpanTotals fin = get("core.stream.finalize");
  const double commands =
      static_cast<double>(std::max<std::size_t>(trials.size(), 1));
  report.set("core.stream.push_ms",
             ns_to_ms(static_cast<double>(push.total)) /
                 static_cast<double>(std::max<std::size_t>(push.count, 1)));
  report.set("core.stream.pushes", static_cast<double>(push.count) / commands);
  report.set("core.stream.finalize_ms",
             ns_to_ms(static_cast<double>(fin.total)) / commands);
  report.set("core.stream.fraction_p50", quantile(fractions, 0.5));
  report.set("core.stream.early_exit_share",
             static_cast<double>(early) / commands);
}

}  // namespace vgbench
