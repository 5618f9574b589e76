// The deterministic trial population shared by the serving sweeps.
//
// The fleet sweep (sharded server across a load grid) and the chaos sweep
// (sharded server under fault injection) both replay the same rendered
// population: trials, oracle segmenters, one shared request interleaving,
// and the rng roots for scoring and arrivals. Extracting the renderer
// makes the cross-sweep comparison literal — identical rows mean
// identical requests, and any score difference is the serving topology's
// fault, not the population's.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/segmentation.hpp"
#include "eval/load_sweep.hpp"
#include "eval/scenario.hpp"

namespace vibguard::eval {

/// Rendered population: everything a sweep replays, derived purely from
/// (config, seed).
struct SweepPopulation {
  std::vector<TrialRecordings> trials;
  std::vector<core::OracleSegmenter> oracles;
  /// One deterministic interleaving of the population, shared by every
  /// sweep point so points differ only in timing.
  std::vector<std::size_t> order;
  core::DefenseConfig primary_cfg;
  Rng score_rng{0};
  Rng arrival_rng{0};
};

/// Renders the population for `config` at `seed`. Deterministic; mirrors
/// the fault sweep's definition (one shared simulator stream, fixed
/// order). Throws InvalidArgument for an empty population.
void render_sweep_population(const LoadSweepConfig& config,
                             std::uint64_t seed, SweepPopulation& pop);

/// Poisson arrivals at `rps`: i.i.d. exponential inter-arrival gaps,
/// quantized to >= 1 virtual microsecond. Forked from the arrival root by
/// `point_index` only, so every serving topology replays identical
/// arrivals.
std::vector<std::uint64_t> poisson_arrivals(const Rng& arrival_rng,
                                            std::size_t point_index,
                                            double rps, std::size_t count);

/// EER of attack-vs-legit score classes, or NaN when either class holds
/// fewer than two scores (the curve is meaningless there, not zero).
double eer_or_nan(const std::vector<double>& attack,
                  const std::vector<double>& legit);

/// Nearest-rank percentile (pct in (0, 100]) of `values`: the smallest
/// element with at least ceil(pct/100 * n) elements <= it. Exact sample
/// statistic — no interpolation, so sweeps report values that actually
/// occurred. Returns 0 for an empty sample. Sorts a copy; callers keep
/// their order.
std::uint64_t percentile_nearest_rank(std::vector<std::uint64_t> values,
                                      double pct);

}  // namespace vibguard::eval
