#include "eval/load_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/segmentation.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "serving/server.hpp"
#include "speech/speaker.hpp"

namespace vibguard::eval {
namespace {

/// EER needs a minimally populated pair of score classes to mean anything.
constexpr std::size_t kMinClassScores = 2;

/// Sessions are numbered from here; request i belongs to session
/// kSessionIdBase + i mod sessions.
constexpr std::uint64_t kSessionIdBase = 0xA000;

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// EER of attack-vs-legit score classes, or NaN when either class holds
/// fewer than two scores (the curve is meaningless there, not zero).
double eer_or_nan(const std::vector<double>& attack,
                  const std::vector<double>& legit) {
  if (attack.size() < kMinClassScores || legit.size() < kMinClassScores) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return compute_roc(attack, legit).eer;
}

/// Rendered population: everything a grid cell replays, derived purely
/// from (config, seed).
struct Population {
  std::vector<TrialRecordings> trials;
  std::vector<core::OracleSegmenter> oracles;
  /// One deterministic interleaving of the population, shared by every
  /// grid cell so cells differ only in timing and topology.
  std::vector<std::size_t> order;
  core::DefenseConfig primary_cfg;
  Rng score_rng{0};
  Rng arrival_rng{0};
};

/// Renders the population for `config` at `seed`. Mirrors the fault
/// sweep's definition: one shared simulator stream, fixed order.
Population render_population(const LoadSweepConfig& config,
                             std::uint64_t seed) {
  VIBGUARD_REQUIRE(config.num_speakers >= 2,
                   "need at least two speakers (victim + adversary)");
  VIBGUARD_REQUIRE(config.legit_trials + config.attack_trials > 0,
                   "sweep population must hold at least one trial");
  VIBGUARD_REQUIRE(!config.offered_rps.empty(),
                   "offered-load grid must be non-empty");
  for (const double rps : config.offered_rps) {
    VIBGUARD_REQUIRE(rps > 0.0, "offered load must be positive");
  }

  Population pop;
  Rng rng(seed);
  const auto speakers = speech::sample_population(config.num_speakers, rng);
  ScenarioSimulator sim(config.scenario, seed ^ 0x5ce9a21ULL);
  ThreadPool pool(std::min(recommended_threads(),
                           config.legit_trials + config.attack_trials));
  pop.trials = render_trials(sim, speakers, config.legit_trials,
                             config.attack_trials, config.attack, pool);

  const auto& sensitive = reference_sensitive_set();
  pop.oracles.reserve(pop.trials.size());
  for (const TrialRecordings& trial : pop.trials) {
    pop.oracles.emplace_back(trial.alignment, sensitive);
  }

  pop.primary_cfg = config.defense;
  pop.primary_cfg.wearable = config.scenario.wearable;
  pop.primary_cfg.sync = config.scenario.sync;

  pop.order.resize(pop.trials.size());
  for (std::size_t i = 0; i < pop.order.size(); ++i) pop.order[i] = i;
  Rng shuffle_rng = rng.fork(0x0de1ULL);
  for (std::size_t i = pop.order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(pop.order[i - 1], pop.order[j]);
  }

  pop.score_rng = Rng(seed ^ 0x7e57ULL);
  pop.arrival_rng = Rng(seed ^ 0xa331a1ULL);
  return pop;
}

/// Poisson arrivals at `rps`: i.i.d. exponential inter-arrival gaps,
/// quantized to >= 1 virtual microsecond. Forked from the arrival root by
/// `point_index` only, so every worker count replays identical arrivals.
std::vector<std::uint64_t> poisson_arrivals(const Rng& arrival_rng,
                                            std::size_t point_index,
                                            double rps, std::size_t count) {
  Rng arrivals_rng = arrival_rng.fork(point_index);
  std::vector<std::uint64_t> arrival_us(count);
  std::uint64_t t_us = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double gap_s = -std::log(1.0 - arrivals_rng.uniform()) / rps;
    t_us += std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(gap_s * 1e6)));
    arrival_us[i] = t_us;
  }
  return arrival_us;
}

/// One grid cell: replays `pop` at `arrival_us` through a `workers`-worker
/// serving::Server, event by event on a VirtualClock. The events are
/// arrivals and batch starts; the earliest wins, and a batch start beats
/// an arrival at equal times, freeing queue space before the arrival is
/// offered. Deterministic in its inputs.
FleetSweepPoint replay(const Population& pop,
                       const std::vector<std::uint64_t>& arrival_us,
                       const FleetSweepConfig& config, std::size_t workers) {
  const LoadSweepConfig& base = config.base;
  const std::size_t num_requests = arrival_us.size();

  VirtualClock clock;
  serving::ServerConfig server_cfg;
  server_cfg.defense = pop.primary_cfg;
  server_cfg.workers = workers;
  server_cfg.shard.queue_capacity = base.queue_capacity;
  server_cfg.shard.batch_max = config.batch_max;
  server_cfg.shard.batch_window_us = config.batch_window_us;
  server_cfg.shard.breaker = base.breaker;
  server_cfg.deadline_us = base.deadline_us;
  serving::Server server(server_cfg, clock);

  std::vector<serving::SessionHandle> handles(config.sessions);
  for (std::size_t s = 0; s < config.sessions; ++s) {
    handles[s] = server.open_session(kSessionIdBase + s);
  }

  FleetSweepPoint point;
  point.workers = workers;
  point.arrivals = num_requests;
  std::vector<double> legit_pri, attack_pri, legit_deg, attack_deg;
  std::vector<std::uint64_t> free_us(workers, 0);
  std::uint64_t makespan_us = 0;
  std::size_t queued = 0;  // admitted, not yet formed into a batch

  std::vector<serving::ServedResult> results;
  std::vector<std::uint64_t> eff;

  std::size_t next_arrival = 0;
  while (next_arrival < num_requests || queued > 0) {
    // The earliest batch start: a worker can begin when it is free, its
    // batch window has elapsed (or the batch is full), and — since queue
    // state only changes at events — never before the last processed
    // event. Lowest worker index wins ties.
    bool have_service = false;
    std::size_t sw = 0;
    std::uint64_t s_start = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const auto ready = server.batch_ready_us(w);
      if (!ready.has_value()) continue;
      const std::uint64_t start =
          std::max({free_us[w], *ready, clock.now_us()});
      if (!have_service || start < s_start) {
        have_service = true;
        sw = w;
        s_start = start;
      }
    }

    if (have_service && (next_arrival == num_requests ||
                         s_start <= arrival_us[next_arrival])) {
      clock.set(s_start);
      const auto planned = server.form_batch(sw);
      // s_start >= the shard's ready time and the queue is untouched
      // since it was computed, so the batch always forms.
      VIBGUARD_REQUIRE(planned.has_value(), "ready batch failed to form");
      queued -= planned->items.size();

      // Walk the batch serially: one setup cost, then per-item service.
      // The service time is modeled, so mid-flight expiry cannot be
      // observed by really running the clock into the deadline (that
      // would reorder events against later arrivals). Instead expiry is
      // decided analytically: a doomed item scores under an
      // already-expired deadline (cancellation at the first stage
      // boundary) while the worker stays occupied until the cancellation
      // instant.
      const std::uint64_t service_us = planned->degraded
                                           ? base.service_us_degraded
                                           : base.service_us_primary;
      std::uint64_t t_us = s_start + config.batch_setup_us;
      eff.clear();
      for (const serving::WorkItem& item : planned->items) {
        if (item.expired_in_queue) {
          ++point.deadline_missed;
          eff.push_back(item.deadline_at_us);
          continue;
        }
        if (item.deadline_at_us <= t_us) {
          // Expires before its service begins (earlier batch items
          // occupy the worker past it): cancelled at zero cost.
          eff.push_back(s_start);
          continue;
        }
        const std::uint64_t fin = t_us + service_us;
        if (fin > item.deadline_at_us) {
          // Mid-flight miss: cancelled at the deadline instant.
          eff.push_back(s_start);
          t_us = item.deadline_at_us;
        } else {
          eff.push_back(item.deadline_at_us);
          t_us = fin;
        }
      }
      results.clear();
      server.complete_batch(sw, results, eff);
      free_us[sw] = t_us;
      makespan_us = std::max(makespan_us, t_us);

      for (const serving::ServedResult& r : results) {
        if (r.expired_in_queue) continue;  // counted at formation
        const std::size_t t = pop.order[r.request_id];
        switch (r.outcome.status) {
          case core::ScoreStatus::kOk:
            if (r.degraded) {
              ++point.scored_degraded;
              (pop.trials[t].is_attack ? attack_deg : legit_deg)
                  .push_back(r.outcome.score);
            } else {
              ++point.scored_primary;
              (pop.trials[t].is_attack ? attack_pri : legit_pri)
                  .push_back(r.outcome.score);
            }
            break;
          case core::ScoreStatus::kIndeterminate:
            ++point.indeterminate;
            break;
          case core::ScoreStatus::kError:
            ++point.errors;
            break;
          case core::ScoreStatus::kDeadlineExceeded:
            ++point.deadline_missed;
            break;
        }
      }
      continue;
    }

    // Arrival: route it to its session's shard.
    clock.set(arrival_us[next_arrival]);
    const std::size_t i = next_arrival++;
    const std::size_t t = pop.order[i];
    const std::size_t s = i % config.sessions;
    serving::ServerRequest req;
    req.va = &pop.trials[t].va;
    req.wearable = &pop.trials[t].wearable;
    req.segmenter = &pop.oracles[t];
    req.rng = pop.score_rng.fork(t);
    req.request_id = i;
    switch (server.submit(kSessionIdBase + s, handles[s], req)) {
      case serving::SubmitStatus::kQueued:
        ++point.admitted;
        ++queued;
        break;
      case serving::SubmitStatus::kRejectedQueueFull:
        ++point.rejected;
        break;
      case serving::SubmitStatus::kStaleSession:
        VIBGUARD_REQUIRE(false, "fleet replay lost a session handle");
    }
  }

  std::uint64_t batched_items = 0, dequeued = 0, total_queue_us = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const serving::ShardStats stats = server.stats(w);
    point.breaker_trips += stats.breaker_trips;
    dequeued += stats.dequeued;
    total_queue_us += stats.total_queue_us;
    point.batches += stats.batches;
    batched_items += stats.batched_items;
  }
  VIBGUARD_REQUIRE(point.arrivals ==
                       point.rejected + point.scored_primary +
                           point.scored_degraded + point.indeterminate +
                           point.errors + point.deadline_missed,
                   "fleet replay lost an arrival");

  point.mean_batch = ratio(batched_items, point.batches);
  point.mean_queue_us = ratio(total_queue_us, dequeued);
  point.throughput_rps =
      makespan_us > 0 ? static_cast<double>(point.admitted) /
                            (static_cast<double>(makespan_us) * 1e-6)
                      : 0.0;
  point.eer_primary = eer_or_nan(attack_pri, legit_pri);
  point.eer_degraded = eer_or_nan(attack_deg, legit_deg);
  return point;
}

}  // namespace

std::string FleetSweepResult::summary() const {
  std::string out = "fleet load sweep\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  %3s %7s %5s %6s %6s %7s %8s %8s %6s %5s %7s %6s "
                "%9s %9s %8s %8s\n",
                "wrk", "rps", "arr", "reject", "dlmiss", "primary",
                "degraded", "indeterm", "error", "trips", "batches", "avg_b",
                "queue us", "thr rps", "EERpri", "EERdeg");
  out += line;
  for (const FleetSweepPoint& p : points) {
    std::snprintf(line, sizeof(line),
                  "  %3zu %7.1f %5zu %6zu %6zu %7zu %8zu %8zu %6zu "
                  "%5zu %7zu %6.2f %9.0f %9.2f %8.3f %8.3f\n",
                  p.workers, p.offered_rps, p.arrivals, p.rejected,
                  p.deadline_missed, p.scored_primary,
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

  const Population pop = render_population(config.base, seed);

  FleetSweepResult result;
  for (const std::size_t workers : config.workers) {
    for (std::size_t p_idx = 0; p_idx < config.base.offered_rps.size();
         ++p_idx) {
      const double rps = config.base.offered_rps[p_idx];
      // Forked by load index only: every worker count replays the exact
      // same arrival times, so the scaling columns are comparable.
      const std::vector<std::uint64_t> arrival_us =
          poisson_arrivals(pop.arrival_rng, p_idx, rps, pop.order.size());
      FleetSweepPoint point = replay(pop, arrival_us, config, workers);
      point.offered_rps = rps;
      result.points.push_back(point);
    }
  }
  return result;
}

}  // namespace vibguard::eval
