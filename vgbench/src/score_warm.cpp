// score_warm: one client, closed loop, DefenseSystem::score in kFull mode
// with one warm Workspace over a fixed pre-rendered population (half
// legitimate, half replay/synthesis/hidden-voice attacks, one speaker per
// legitimate command, the whole command lexicon twice per class so command
// lengths vary). The stage pipeline does
// all the work; rendering and serving do none.
#include <cstring>
#include <exception>

#include "core/detector.hpp"
#include "speech/command.hpp"
#include "traced_pipeline.hpp"
#include "workloads.hpp"

namespace vgbench {

namespace core = vibguard::core;

namespace {

struct ScoreWarmState {
  std::vector<Trial> trials;
  core::DefenseSystem system{defense_config()};
  core::Workspace ws;
  std::vector<double> reference;  ///< each trial's warm-up score
};

}  // namespace

void run_score_warm(const Options& opt, Report& report, Tracer& tracer) {
  const std::size_t per_class =
      2 * vibguard::speech::command_lexicon().size();
  const std::function<std::unique_ptr<ScoreWarmState>()> setup = [&] {
    auto st = std::make_unique<ScoreWarmState>();
    st->trials = render_population(opt.seed, mixed_population(per_class),
                                   tracer.enabled() ? &tracer : nullptr,
                                   report);
    // The warm-up pass fills the workspace to its high-water capacity and
    // records the reference score every later verdict must reproduce.
    for (const Trial& t : st->trials) {
      vibguard::Rng rng = t.rng;
      st->reference.push_back(st->system.score(
          t.rec.va, t.rec.wearable, &t.segmenter, rng, st->ws));
    }
    return st;
  };
  auto st = timed_setup(opt, report, setup);

  std::vector<double> attack, legit;
  for (std::size_t i = 0; i < st->trials.size(); ++i) {
    if (core::is_indeterminate_score(st->reference[i])) continue;
    (st->trials[i].rec.is_attack ? attack : legit)
        .push_back(st->reference[i]);
  }
  report_detection(opt, detection(attack, legit), report);

  TracedPipeline traced(st->system);
  StageCounts counts;
  std::vector<double> latencies;
  latencies.reserve(1 << 16);
  bool identical = true;
  bool traced_identical = true;
  const Ns start = now_ns();
  const Ns stop = start + static_cast<Ns>(opt.seconds * 1e9);
  Ns now = start;
  for (std::size_t k = 0; now < stop; ++k) {
    const std::size_t i = k % st->trials.size();
    const Trial& t = st->trials[i];
    vibguard::Rng rng = t.rng;
    ++report.attempted;
    double s = core::kIndeterminateScore;
    const Ns t0 = now_ns();
    try {
      s = st->system.score(t.rec.va, t.rec.wearable, &t.segmenter, rng, st->ws);
    } catch (const std::exception&) {
      s = core::kIndeterminateScore;  // counted as failed below
    }
    now = now_ns();
    latencies.push_back(ns_to_ms(static_cast<double>(now - t0)));
    if (core::is_indeterminate_score(s)) ++report.failed;
    identical = identical && same_bits(s, st->reference[i]);

    if (tracer.enabled()) {
      // Traced runs alternate untraced and traced verdicts on the same
      // command, so the two latency samples see the same mix.
      vibguard::Rng traced_rng = t.rng;
      const double d = traced.score(t.rec.va, t.rec.wearable, &t.segmenter,
                                    traced_rng, st->ws, tracer, i, counts);
      traced_identical = traced_identical && same_bits(d, st->reference[i]);
      now = now_ns();
    }
  }
  const double elapsed = static_cast<double>(now - start) * 1e-9;
  report.check(identical, "warm score differs from the warm-up score");
  report.check(traced_identical,
               "traced pipeline score differs from DefenseSystem::score");

  if (!tracer.enabled()) {
    report_latency(latencies, elapsed, report);
    report.set("ok_share", 1.0 - static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  trace_streaming(st->trials, st->reference, st->system, tracer, report);
  const auto totals = tracer.totals();
  report_stage_metrics(totals, counts, report);
  report_render_metrics(totals, report);
  // The traced verdict is the "core.score" span: the side calls that time
  // the vib_capture halves run after it closes.
  std::vector<double> traced_latencies;
  for (const Span& span : tracer.spans()) {
    if (std::strcmp(span.name, "core.score") == 0) {
      traced_latencies.push_back(
          ns_to_ms(static_cast<double>(span.end - span.start)));
    }
  }
  report.set("harness.trace_overhead", quantile(traced_latencies, 0.5) /
                                           quantile(latencies, 0.5));
}

}  // namespace vgbench
