// Steady-state benchmarks for the staged pipeline's batch scoring API.
//
// The headline measurement is `allocs_per_score`: after one warm-up call
// has grown a Workspace's buffers to their steady-state sizes, repeated
// scoring through that workspace must perform ZERO heap allocations per
// trial (counted via common/alloc_counter.hpp). The batch benchmarks also
// cover the serial stats-collecting path and the ThreadPool fan-out used by
// ExperimentRunner.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "core/segmentation.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard {
namespace {

/// A small panel of rendered trials shared by the batch benchmarks.
struct TrialPanel {
  std::vector<eval::TrialRecordings> trials;
  std::vector<core::OracleSegmenter> segmenters;
  std::vector<core::ScoreRequest> requests;
};

TrialPanel make_panel(std::size_t n) {
  TrialPanel panel;
  eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 8);
  Rng rng(9);
  const auto user = speech::sample_speaker(speech::Sex::kMale, rng);
  panel.trials.reserve(n);
  panel.segmenters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    panel.trials.push_back(sim.legitimate_trial(
        speech::command_by_text("turn on the lights"), user));
    panel.segmenters.emplace_back(panel.trials.back().alignment,
                                  eval::reference_sensitive_set());
  }
  for (std::size_t i = 0; i < n; ++i) {
    panel.requests.push_back(core::ScoreRequest{
        &panel.trials[i].va, &panel.trials[i].wearable, &panel.segmenters[i],
        Rng(10 + i)});
  }
  return panel;
}

void BM_ScoreWarmWorkspace(benchmark::State& state) {
  // One trial scored repeatedly through a caller-owned workspace: the
  // steady-state regime of DefenseSession and ExperimentRunner workers.
  const TrialPanel panel = make_panel(1);
  core::DefenseSystem system{core::DefenseConfig{}};
  core::Workspace workspace;
  {
    // Warm-up: the first score grows every workspace buffer (and the
    // thread-local FFT plans) to steady-state size.
    Rng r(10);
    system.score(panel.trials[0].va, panel.trials[0].wearable,
                 &panel.segmenters[0], r, workspace);
  }
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    Rng r(10);
    const std::uint64_t before = allocation_count();
    benchmark::DoNotOptimize(system.score(panel.trials[0].va,
                                          panel.trials[0].wearable,
                                          &panel.segmenters[0], r, workspace));
    allocs += allocation_count() - before;
  }
  // Target: 0. Any regression that re-introduces per-trial allocations in
  // the scoring hot path shows up here immediately.
  state.counters["allocs_per_score"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ScoreWarmWorkspace);

void BM_ScoreBatchSerial(benchmark::State& state) {
  // Serial batch with per-stage stats collection (the DefenseSession
  // process_batch path).
  const TrialPanel panel = make_panel(4);
  core::DefenseSystem system{core::DefenseConfig{}};
  core::Workspace workspace;
  core::PipelineTrace trace;
  core::PipelineStats stats;
  std::vector<core::ScoreOutcome> outcomes(panel.requests.size());
  system.score_batch(panel.requests, outcomes, workspace, &trace, &stats);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocation_count();
    system.score_batch(panel.requests, outcomes, workspace, &trace, &stats);
    allocs += allocation_count() - before;
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(panel.requests.size()));
  state.counters["allocs_per_trial"] = benchmark::Counter(
      static_cast<double>(allocs) /
          static_cast<double>(panel.requests.size()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ScoreBatchSerial);

void BM_ScoreBatchParallel(benchmark::State& state) {
  // ThreadPool fan-out with one warm workspace per worker (the
  // ExperimentRunner path). Outcomes are bit-identical to the serial batch.
  const TrialPanel panel = make_panel(8);
  core::DefenseSystem system{core::DefenseConfig{}};
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<core::Workspace> workspaces(
      std::max<std::size_t>(1, pool.num_threads()));
  std::vector<core::ScoreOutcome> outcomes(panel.requests.size());
  system.score_batch(panel.requests, outcomes, pool, workspaces);
  for (auto _ : state) {
    system.score_batch(panel.requests, outcomes, pool, workspaces);
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(panel.requests.size()));
}
BENCHMARK(BM_ScoreBatchParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace vibguard

BENCHMARK_MAIN();
