// Chaos sweep: fleet behavior under injected worker faults.
//
// Replays the shared sweep population (eval/sweep_population.hpp) through
// the sharded serving::Server on a VirtualClock — replay_fleet, the one
// discrete-event loop the fleet sweep runs too — while a seeded
// faults::ChaosController injects worker failures (stall / crash / slow /
// lossy) and a serving::Supervisor watches heartbeats and fails dead
// workers over.
// Each scenario row reports the full request accounting (every arrival
// ends in exactly one bucket: rejected, answered, expired, dropped in
// migration, or reply lost — `accounted` pins that the buckets sum to
// the arrivals), availability, failover detection latency, migration
// volume, and the detection quality (EER) of what the fleet actually
// answered while the chaos ran.
//
// Everything is deterministic in (seed, chaos_seed): the population, the
// arrivals, the fault windows, the supervisor's poll-by-poll decisions
// and the resulting migrations replay bit-identically — a chaos run is a
// regression test, not a dice roll. A fleet-sweep cell is a replay with an
// empty plan, remediation off and no growth.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "eval/load_sweep.hpp"
#include "eval/sweep_population.hpp"
#include "faults/serving_faults.hpp"
#include "serving/supervisor.hpp"

namespace vibguard::eval {

/// One chaos scenario: a named fault plan, optionally with a mid-run
/// fleet growth event and/or a supervisor remediation policy.
struct ChaosScenario {
  std::string name;
  faults::ChaosPlan plan;
  /// When set, one worker is added at this virtual time (growth
  /// migration: only sessions whose owner changed move).
  std::optional<std::uint64_t> grow_at_us;
  /// When set, overrides the sweep supervisor's remediation policy for
  /// this scenario only (the remediation scenarios turn exactly one rung
  /// on each). Unset inherits config.supervisor.remediation — disabled by
  /// default, which keeps every non-remediation scenario bit-identical to
  /// a supervisor without the ladder.
  std::optional<serving::RemediationConfig> remediation;
};

struct ChaosSweepConfig {
  /// Population, service model, deadline and breaker (per shard);
  /// base.offered_rps is ignored — the chaos sweep runs one load.
  LoadSweepConfig base;
  double offered_rps = 30.0;

  std::size_t workers = 4;
  std::size_t sessions = 16;
  std::uint32_t tenants = 4;
  std::size_t batch_max = 4;
  std::uint64_t batch_window_us = 20'000;
  std::uint64_t batch_setup_us = 10'000;
  std::size_t ring_replicas = 64;

  serving::SupervisorConfig supervisor;
  /// Supervisor poll cadence on the virtual clock. Live workers stamp
  /// their heartbeat at each poll tick (modeling the pump's idle beat),
  /// so detection latency resolves at this granularity.
  std::uint64_t supervisor_poll_us = 20'000;

  std::uint64_t chaos_seed = 0xC4A05ULL;

  /// Scenarios to run; empty selects default_chaos_scenarios() +
  /// remediation_chaos_scenarios().
  std::vector<ChaosScenario> scenarios;

  /// When non-empty, run only the scenario with this exact name. An
  /// unknown name throws InvalidArgument (the CLI maps it to a usage
  /// error, exit 2).
  std::string scenario_filter;
};

/// The canonical scenario set: a fault-free baseline plus one scenario
/// per worker fault kind on worker 1, and a crash followed by fleet
/// growth. `horizon_us` scales the fault windows (use the expected end
/// of the arrival stream).
std::vector<ChaosScenario> default_chaos_scenarios(std::uint64_t horizon_us);

/// The remediation trio, one scenario per ladder rung (each enables
/// exactly the rung it exercises):
///   slow_steal    — three short stalls on worker 1, each holding it SLOW
///                   for two polls; idle peers steal its queue.
///   wedge_recover — one finite stall crossing the wedged threshold; the
///                   worker is quarantined, restarts, beats under the new
///                   epoch, and is restored.
///   overload_grow — every starting worker throttled 2x for the run; the
///                   windowed overload score confirms and the supervisor
///                   grows the fleet (grown workers are not throttled).
/// `workers` is the starting fleet size (bounds the throttle set so grown
/// workers escape it). Window timings assume the default supervisor
/// thresholds and 20 ms poll.
std::vector<ChaosScenario> remediation_chaos_scenarios(
    std::uint64_t horizon_us, std::size_t workers);

/// One scenario's outcome. The accounting identity (checked in
/// `accounted`):
///   arrivals == rejected + quota_rejected + closed_rejected + answered
///             + deadline_missed + migration_dropped + results_lost
///             + stranded
struct ChaosSweepPoint {
  std::string scenario;
  std::size_t workers_start = 0;
  std::size_t workers_end = 0;  ///< active workers when the run finished

  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;         ///< full shard queue at submit
  std::size_t quota_rejected = 0;   ///< tenant over quota at submit
  std::size_t closed_rejected = 0;  ///< submitted to a retiring shard
  std::size_t answered = 0;         ///< a verdict reached the caller
  std::size_t scored_primary = 0;
  std::size_t scored_degraded = 0;
  std::size_t indeterminate = 0;
  std::size_t errors = 0;
  std::size_t deadline_missed = 0;    ///< queue, flight or migration expiry
  std::size_t migration_dropped = 0;  ///< new owner's queue refused it
  std::size_t results_lost = 0;       ///< lossy fault ate the reply
  std::size_t stranded = 0;           ///< unserved at the simulation bound
  bool accounted = false;             ///< the identity above held exactly

  std::size_t failovers = 0;
  std::size_t sessions_migrated = 0;
  std::size_t items_migrated = 0;   ///< queued items re-homed live
  std::size_t served_migrated = 0;  ///< answered after riding a migration
  /// Crash → failover completion, for the first failover of a crashed
  /// worker (0 when no crash was failed over): the time the fleet ran
  /// headless before the supervisor recovered it.
  std::uint64_t detect_us = 0;

  // Remediation ladder accounting (all zero when remediation is off).
  std::size_t steals = 0;        ///< steal passes that moved >= 1 item
  std::size_t items_stolen = 0;  ///< items moved to a thief shard
  std::size_t quarantines = 0;
  std::size_t recoveries = 0;
  std::size_t escalations = 0;
  std::size_t grows = 0;            ///< supervisor-driven fleet growth
  std::size_t flap_suppressed = 0;  ///< confirmed overload pinned instead
  /// First fault onset → first remediation action (0 when the log is
  /// empty or the plan has no faults): time-to-remediate.
  std::uint64_t remediate_us = 0;
  /// Nearest-rank p95 of queue wait among ANSWERED requests — the tail
  /// latency the steal rung exists to cut.
  std::uint64_t queue_age_p95_us = 0;

  double availability = 0.0;  ///< answered / arrivals
  /// Answered fraction among arrivals after the last failover (NaN when
  /// no failover or no arrivals after it) — the recovered-fleet accept
  /// rate the acceptance test compares to baseline.
  double post_failover_availability = 0.0;
  std::size_t breaker_trips = 0;
  double eer_primary = 0.0;
  double eer_degraded = 0.0;
};

struct ChaosSweepResult {
  std::vector<ChaosSweepPoint> points;

  /// Multi-line table: one row per scenario.
  std::string summary() const;
};

/// Runs every scenario. Deterministic in (config, seed); all time is
/// virtual, nothing sleeps.
ChaosSweepResult run_chaos_sweep(const ChaosSweepConfig& config,
                                 std::uint64_t seed);

/// What one replay measured: the full chaos accounting, plus the shard
/// aggregates only the fleet table prints.
struct FleetReplay {
  ChaosSweepPoint point;
  std::uint64_t batches = 0;
  std::uint64_t batched_items = 0;
  std::uint64_t dequeued = 0;        ///< service dequeues (not expired)
  std::uint64_t total_queue_us = 0;  ///< summed over those dequeues
  std::uint64_t makespan_us = 0;     ///< when the last batch finished
};

/// The discrete-event loop behind both serving sweeps: replays `pop` at
/// `arrival_us` through a `config.workers`-worker serving::Server under
/// `scenario`, event by event on a VirtualClock. Shape, service model and
/// supervisor come from `config` (its load, scenario list and filter are
/// the caller's business); `tenant_max_queued` is the per-shard tenant
/// quota. Deterministic in its inputs.
FleetReplay replay_fleet(const SweepPopulation& pop,
                         const std::vector<std::uint64_t>& arrival_us,
                         const ChaosSweepConfig& config,
                         const ChaosScenario& scenario,
                         std::size_t tenant_max_queued = SIZE_MAX);

}  // namespace vibguard::eval
