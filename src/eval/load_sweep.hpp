// Load sweep: serving behavior and detection quality vs offered load.
//
// Renders one fixed population of legitimate and attack trials, then — for
// each worker count and offered arrival rate — replays the population as a
// Poisson request stream through a sharded serving::Server on a
// VirtualClock, in one fault-free discrete-event loop private to
// load_sweep.cpp. The server brings the whole overload toolkit: bounded
// per-shard queues with reject-on-full backpressure, a per-request
// deadline budget with cooperative cancellation, and per-shard circuit
// breakers that route batches to the cheap degraded route
// (DefenseMode::kAudioBaseline) while the primary pipeline is saturated.
// One worker with micro-batching off (batch_max 1, no window, no setup
// cost) is the single serving node.
// Service times are modeled (virtual microseconds; nothing ever sleeps),
// while the scores come from the real pipeline, so each row reports both
// the serving-side rates (accept / reject / deadline-miss / degraded) and
// the detection quality (EER) of whatever the fleet actually answered at
// that load. Without faults the loop always drains: however long the
// backlog or the batch window, every arrival ends in exactly one bucket.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "core/pipeline.hpp"
#include "eval/scenario.hpp"
#include "serving/circuit_breaker.hpp"

namespace vibguard::eval {

struct LoadSweepConfig {
  ScenarioConfig scenario;
  std::size_t num_speakers = 4;
  std::size_t legit_trials = 20;
  std::size_t attack_trials = 20;
  attacks::AttackType attack = attacks::AttackType::kReplay;
  core::DefenseConfig defense;  ///< primary mode under test

  /// Offered load grid, requests per (virtual) second.
  std::vector<double> offered_rps = {2.0, 5.0, 10.0, 20.0, 50.0};

  /// Modeled service time of one command, virtual microseconds. The primary
  /// pipeline is the expensive path; the degraded mode is the cheap one.
  std::uint64_t service_us_primary = 180'000;
  std::uint64_t service_us_degraded = 40'000;

  /// Per-request deadline budget from arrival, virtual microseconds.
  std::uint64_t deadline_us = 400'000;

  /// Queue bound per shard (reject-on-full beyond it).
  std::size_t queue_capacity = 8;

  /// Breaker tripped by consecutive deadline misses on the primary route.
  serving::BreakerConfig breaker;
};

/// Fleet sweep: the population served across a workers × load grid.
/// Requests belong to a pool of long-lived sessions placed on workers by
/// the server's consistent-hash ring; each worker micro-batches admitted
/// requests into score_batch calls. Because every request scores from its
/// own rng fork (keyed by trial, not by placement), the scores at a given
/// load are bit-identical across worker counts and batch windows — the
/// fleet determinism contract the tests pin.
struct FleetSweepConfig {
  /// Population, service model, queue bound, deadline and breaker; the
  /// queue bound and breaker apply per shard.
  LoadSweepConfig base;

  /// Worker-count grid (rows = workers × base.offered_rps).
  std::vector<std::size_t> workers = {1, 2, 4, 8};

  /// Long-lived session pool; request i belongs to session i mod sessions.
  std::size_t sessions = 16;

  /// Micro-batch limits (see ShardConfig).
  std::size_t batch_max = 4;
  std::uint64_t batch_window_us = 20'000;
  /// Fixed per-batch overhead (virtual us) before the first item serves —
  /// what batching amortizes: per-item cost stays, setup is paid once.
  std::uint64_t batch_setup_us = 10'000;
};

/// One (workers, offered load) grid cell.
struct FleetSweepPoint {
  std::size_t workers = 0;
  double offered_rps = 0.0;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;        ///< full shard queue
  std::size_t deadline_missed = 0; ///< expired in queue or mid-flight
  std::size_t scored_primary = 0;
  std::size_t scored_degraded = 0;
  std::size_t indeterminate = 0;
  std::size_t errors = 0;
  std::size_t breaker_trips = 0;   ///< summed over shards
  std::size_t batches = 0;
  double mean_batch = 0.0;
  double mean_queue_us = 0.0;      ///< over service dequeues (not expired)
  double throughput_rps = 0.0;     ///< completions per virtual second
  double eer_primary = 0.0;
  double eer_degraded = 0.0;
};

struct FleetSweepResult {
  std::vector<FleetSweepPoint> points;

  /// Multi-line table: one row per (workers, offered load) cell.
  std::string summary() const;
};

/// Runs the fleet sweep. Deterministic in `seed`; the arrival process is
/// forked per load point only, so every worker count replays identical
/// arrivals and the scaling columns are directly comparable.
FleetSweepResult run_fleet_sweep(const FleetSweepConfig& config,
                                 std::uint64_t seed);

}  // namespace vibguard::eval
