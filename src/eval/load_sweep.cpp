#include "eval/load_sweep.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "eval/chaos_sweep.hpp"
#include "eval/sweep_population.hpp"

namespace vibguard::eval {
namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

std::string FleetSweepResult::summary() const {
  std::string out = "fleet load sweep\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  %3s %7s %5s %6s %6s %6s %7s %8s %8s %6s %5s %7s %6s "
                "%9s %9s %8s %8s\n",
                "wrk", "rps", "arr", "reject", "quota", "dlmiss", "primary",
                "degraded", "indeterm", "error", "trips", "batches", "avg_b",
                "queue us", "thr rps", "EERpri", "EERdeg");
  out += line;
  for (const FleetSweepPoint& p : points) {
    std::snprintf(line, sizeof(line),
                  "  %3zu %7.1f %5zu %6zu %6zu %6zu %7zu %8zu %8zu %6zu "
                  "%5zu %7zu %6.2f %9.0f %9.2f %8.3f %8.3f\n",
                  p.workers, p.offered_rps, p.arrivals, p.rejected,
                  p.quota_rejected, p.deadline_missed, p.scored_primary,
                  p.scored_degraded, p.indeterminate, p.errors,
                  p.breaker_trips, p.batches, p.mean_batch, p.mean_queue_us,
                  p.throughput_rps, p.eer_primary, p.eer_degraded);
    out += line;
  }
  return out;
}

FleetSweepResult run_fleet_sweep(const FleetSweepConfig& config,
                                 std::uint64_t seed) {
  VIBGUARD_REQUIRE(!config.workers.empty(), "worker grid must be non-empty");
  for (const std::size_t w : config.workers) {
    VIBGUARD_REQUIRE(w > 0, "worker count must be positive");
  }
  VIBGUARD_REQUIRE(config.sessions > 0, "need at least one session");
  VIBGUARD_REQUIRE(config.tenants > 0, "need at least one tenant");

  SweepPopulation pop;
  render_sweep_population(config.base, seed, pop);

  // Every grid cell is a chaos replay with an empty fault plan,
  // remediation off (the supervisor default) and no growth.
  ChaosSweepConfig replay;
  replay.base = config.base;
  replay.sessions = config.sessions;
  replay.tenants = config.tenants;
  replay.batch_max = config.batch_max;
  replay.batch_window_us = config.batch_window_us;
  replay.batch_setup_us = config.batch_setup_us;
  replay.ring_replicas = config.ring_replicas;
  const ChaosScenario fault_free;

  FleetSweepResult result;
  for (const std::size_t workers : config.workers) {
    replay.workers = workers;
    for (std::size_t p_idx = 0; p_idx < config.base.offered_rps.size();
         ++p_idx) {
      const double rps = config.base.offered_rps[p_idx];
      // Forked by load index only: every worker count replays the exact
      // same arrival times, so the scaling columns are comparable.
      const std::vector<std::uint64_t> arrival_us =
          poisson_arrivals(pop.arrival_rng, p_idx, rps, pop.order.size());
      const FleetReplay run = replay_fleet(pop, arrival_us, replay,
                                           fault_free,
                                           config.tenant_max_queued);
      const ChaosSweepPoint& c = run.point;
      // A fault-free fleet never retires a shard and always drains.
      VIBGUARD_REQUIRE(c.accounted && c.stranded == 0 &&
                           c.closed_rejected == 0,
                       "fault-free fleet replay failed to drain");

      FleetSweepPoint point;
      point.workers = workers;
      point.offered_rps = rps;
      point.arrivals = c.arrivals;
      point.admitted = c.admitted;
      point.rejected = c.rejected;
      point.quota_rejected = c.quota_rejected;
      point.deadline_missed = c.deadline_missed;
      point.scored_primary = c.scored_primary;
      point.scored_degraded = c.scored_degraded;
      point.indeterminate = c.indeterminate;
      point.errors = c.errors;
      point.breaker_trips = c.breaker_trips;
      point.batches = run.batches;
      point.mean_batch = ratio(run.batched_items, run.batches);
      point.mean_queue_us = ratio(run.total_queue_us, run.dequeued);
      point.throughput_rps =
          run.makespan_us > 0
              ? static_cast<double>(point.admitted) /
                    (static_cast<double>(run.makespan_us) * 1e-6)
              : 0.0;
      point.eer_primary = c.eer_primary;
      point.eer_degraded = c.eer_degraded;
      result.points.push_back(point);
    }
  }
  return result;
}

}  // namespace vibguard::eval
