// The workloads. Each renders its inputs from opt.seed, measures for
// opt.seconds and checks its outputs. Untraced runs fill the end-to-end
// metrics; traced runs (tracer enabled) fill the per-layer metrics.
#pragma once

#include <functional>
#include <memory>

#include "core/pipeline.hpp"
#include "harness.hpp"

namespace vgbench {

void run_score_warm(const Options& opt, Report& report, Tracer& tracer);
void run_experiment_fig9(const Options& opt, Report& report, Tracer& tracer);
void run_serve_closed(const Options& opt, Report& report, Tracer& tracer);

/// The streaming layer's per-layer metrics, measured in score_warm's
/// traced run: every command of `trials` streamed once with the stopping
/// rule armed. Streams that run to completion must equal `batch_scores`.
void trace_streaming(const std::vector<Trial>& trials,
                     const std::vector<double>& batch_scores,
                     const vibguard::core::DefenseSystem& system,
                     Tracer& tracer, Report& report);

/// The defense configuration every workload scores with: kFull mode, the
/// wearable and sync channel of the default scenario (as ExperimentRunner
/// sets them).
vibguard::core::DefenseConfig defense_config();

/// The mixed population of score_warm and serve_closed:
/// `per_class` legitimate commands and as many attacks cycling through
/// replay, synthesis and hidden voice, spoken by a fixed panel of
/// `per_class` speakers in eight rooms.
PopulationSpec mixed_population(std::size_t per_class);

constexpr int kSetupRepeats = 3;

/// Runs `setup` kSetupRepeats times, keeping the last product, and
/// records the median duration as setup_s. Traced runs set up once.
template <class T>
std::unique_ptr<T> timed_setup(
    const Options& opt, Report& report,
    const std::function<std::unique_ptr<T>()>& setup) {
  std::unique_ptr<T> state;
  std::vector<double> times;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    state.reset();
    const Ns t0 = now_ns();
    state = setup();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  report.set("setup_s", quantile(times, 0.5));
  return state;
}

/// Latency and throughput metrics from per-verdict latencies (ms) over a
/// measured interval.
void report_latency(const std::vector<double>& latencies_ms,
                    double elapsed_s, Report& report);

/// Per-trial render metrics from the replica's spans.
void report_render_metrics(const std::map<std::string, SpanTotals>& totals,
                           Report& report);

}  // namespace vgbench
