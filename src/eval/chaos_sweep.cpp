#include "eval/chaos_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "eval/sweep_population.hpp"

namespace vibguard::eval {
namespace {

/// How long a replay waits, past the last arrival and the end of the last
/// batch, before calling the fleet wedged: a fleet that cannot drain (e.g.
/// every worker crashed with failover disabled) stops there and the
/// leftovers are counted as `stranded` instead of looping forever.
constexpr std::uint64_t kDrainBoundUs = 10'000'000;

/// Earliest time at or after `t` when worker `w` makes progress:
/// UINT64_MAX when it has crashed by then, the end of the covering stall
/// window while stalled, `t` itself otherwise.
std::uint64_t next_alive_at(const faults::ChaosController& chaos,
                            std::size_t w, std::uint64_t t) {
  for (;;) {
    if (chaos.crashed(w, t)) return UINT64_MAX;
    if (!chaos.stalled(w, t)) return t;
    std::uint64_t end = t;
    for (const faults::WorkerFault& fault : chaos.plan().faults()) {
      if (fault.kind == faults::WorkerFaultKind::kStall &&
          fault.worker == w && t >= fault.from_us && t < fault.until_us) {
        end = std::max(end, fault.until_us);
      }
    }
    t = end;  // re-check: windows may chain, or a crash may land inside
  }
}

}  // namespace

std::vector<ChaosScenario> default_chaos_scenarios(std::uint64_t horizon_us) {
  const std::uint64_t h = std::max<std::uint64_t>(horizon_us, 10);
  std::vector<ChaosScenario> scenarios;
  scenarios.push_back({"none", faults::ChaosPlan{}, std::nullopt});
  {
    ChaosScenario s;
    s.name = "stall_w1";
    s.plan.stall(1, 3 * h / 10, 6 * h / 10);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "slow_w1";
    s.plan.slow(1, 2 * h / 10, 8 * h / 10, 4.0);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "lossy_w1";
    s.plan.lossy(1, 2 * h / 10, 8 * h / 10, 0.3);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "crash_w1";
    s.plan.crash(1, 35 * h / 100);
    scenarios.push_back(std::move(s));
  }
  {
    ChaosScenario s;
    s.name = "crash_grow";
    s.plan.crash(1, 35 * h / 100);
    s.grow_at_us = 6 * h / 10;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::vector<ChaosScenario> remediation_chaos_scenarios(
    std::uint64_t horizon_us, std::size_t workers) {
  const std::uint64_t h = std::max<std::uint64_t>(horizon_us, 10);
  std::vector<ChaosScenario> scenarios;
  {
    // Three 40 ms stalls: with a 20 ms poll, 10 ms slow and 50 ms wedged
    // threshold each stall yields exactly two SLOW polls (ages 20 and
    // 40 ms) and never crosses WEDGED — only the steal rung can fire.
    ChaosScenario s;
    s.name = "slow_steal";
    s.plan.stall(1, 2 * h / 10, 2 * h / 10 + 40'000)
        .stall(1, 4 * h / 10, 4 * h / 10 + 40'000)
        .stall(1, 6 * h / 10, 6 * h / 10 + 40'000);
    serving::RemediationConfig r;
    r.enabled = true;
    r.steal = true;
    r.steal_min_depth = 1;
    r.quarantine = false;
    r.grow = false;
    s.remediation = r;
    scenarios.push_back(std::move(s));
  }
  {
    // One 120 ms stall: the third silent poll crosses the 50 ms wedged
    // threshold → quarantine + pump restart; the stall ends well inside
    // the 200 ms probe window, the fresh-epoch beat lands, the worker is
    // restored.
    ChaosScenario s;
    s.name = "wedge_recover";
    s.plan = faults::wedge_then_recover_plan(1, 3 * h / 10, 120'000);
    serving::RemediationConfig r;
    r.enabled = true;
    r.steal = false;
    r.quarantine = true;
    r.probe_timeout_us = 200'000;
    r.grow = false;
    s.remediation = r;
    scenarios.push_back(std::move(s));
  }
  {
    // Every STARTING worker throttled 2x for the whole run (and drain) —
    // queue ages climb, the K-of-N window confirms, and the supervisor
    // grows the fleet; the grown workers are outside the throttle set.
    ChaosScenario s;
    s.name = "overload_grow";
    for (std::size_t w = 0; w < workers; ++w) {
      s.plan.slow(w, h / 20, 10 * h, 2.0);
    }
    serving::RemediationConfig r;
    r.enabled = true;
    r.steal = false;
    r.quarantine = false;
    r.grow = true;
    r.overload_window = 4;
    r.overload_confirm = 3;
    r.queue_age_threshold_us = 60'000;
    r.cooldown_us = std::max<std::uint64_t>(h / 4, 100'000);
    r.max_workers = workers + 4;
    // Pinning is exercised by its own test; keep it out of this
    // scenario's way.
    r.flap_actions = 64;
    s.remediation = r;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::string ChaosSweepResult::summary() const {
  std::string out = "chaos sweep\n";
  char line[320];
  std::snprintf(line, sizeof(line),
                "  %-13s %5s %5s %5s %5s %6s %5s %5s %4s %4s %3s %9s "
                "%6s %8s %7s %3s %8s\n",
                "scenario", "wrk", "arr", "ans", "rej", "dlmiss", "lost",
                "drop", "mig", "fo", "ok", "detect ms", "avail", "EERpri",
                "p95 ms", "rem", "rem ms");
  out += line;
  for (const ChaosSweepPoint& p : points) {
    char wrk[16];
    std::snprintf(wrk, sizeof(wrk), "%zu>%zu", p.workers_start,
                  p.workers_end);
    const std::size_t remediations = p.steals + p.quarantines +
                                     p.recoveries + p.escalations + p.grows +
                                     p.flap_suppressed;
    std::snprintf(line, sizeof(line),
                  "  %-13s %5s %5zu %5zu %5zu %6zu %5zu %5zu %4zu %4zu "
                  "%3s %9.1f %6.3f %8.3f %7.1f %3zu %8.1f\n",
                  p.scenario.c_str(), wrk, p.arrivals, p.answered,
                  p.rejected + p.quota_rejected + p.closed_rejected,
                  p.deadline_missed, p.results_lost, p.migration_dropped,
                  p.sessions_migrated, p.failovers,
                  p.accounted ? "yes" : "NO",
                  static_cast<double>(p.detect_us) / 1000.0, p.availability,
                  p.eer_primary,
                  static_cast<double>(p.queue_age_p95_us) / 1000.0,
                  remediations,
                  static_cast<double>(p.remediate_us) / 1000.0);
    out += line;
  }
  return out;
}

FleetReplay replay_fleet(const SweepPopulation& pop,
                         const std::vector<std::uint64_t>& arrival_us,
                         const ChaosSweepConfig& config,
                         const ChaosScenario& scenario,
                         std::size_t tenant_max_queued) {
  VIBGUARD_REQUIRE(!arrival_us.empty(), "replay needs at least one arrival");
  const std::size_t num_requests = arrival_us.size();
  constexpr std::uint64_t kSessionIdBase = 0xA000;

  VirtualClock clock;
  serving::ServerConfig server_cfg;
  server_cfg.defense = pop.primary_cfg;
  server_cfg.degraded_mode = config.base.degraded_mode;
  server_cfg.workers = config.workers;
  server_cfg.ring_replicas = config.ring_replicas;
  server_cfg.shard.queue_capacity = config.base.queue_capacity;
  server_cfg.shard.batch_max = config.batch_max;
  server_cfg.shard.batch_window_us = config.batch_window_us;
  server_cfg.shard.tenant_max_queued = tenant_max_queued;
  server_cfg.shard.breaker = config.base.breaker;
  server_cfg.deadline_us = config.base.deadline_us;
  serving::Server server(server_cfg, clock);
  serving::SupervisorConfig supervisor_cfg = config.supervisor;
  if (scenario.remediation.has_value()) {
    supervisor_cfg.remediation = *scenario.remediation;
  }
  serving::Supervisor supervisor(server, supervisor_cfg, clock);
  const faults::ChaosController chaos(scenario.plan, config.chaos_seed);

  std::vector<serving::SessionHandle> handles(config.sessions);
  for (std::size_t s = 0; s < config.sessions; ++s) {
    handles[s] = server.open_session(
        kSessionIdBase + s, static_cast<std::uint32_t>(s) % config.tenants);
  }

  FleetReplay run;
  ChaosSweepPoint& point = run.point;
  point.scenario =
      scenario.name.empty() ? scenario.plan.describe() : scenario.name;
  point.workers_start = config.workers;
  point.arrivals = num_requests;
  std::vector<double> legit_pri, attack_pri, legit_deg, attack_deg;
  std::vector<bool> answered_req(num_requests, false);
  std::vector<std::uint64_t> answered_queue_us;

  std::uint64_t last_failover_us = 0;
  bool any_failover = false;
  std::size_t events_seen = 0;

  // A migrated session's caller-held handle follows it to its new shard.
  const auto follow_migrations =
      [&](const std::vector<serving::ResizeReport::MigratedSession>& moves) {
        for (const auto& moved : moves) {
          const std::size_t s = moved.session_id - kSessionIdBase;
          if (s < handles.size() && handles[s] == moved.old_handle) {
            handles[s] = moved.new_handle;
          }
        }
      };

  // Results from migrations (supervisor poll or growth) fold into the
  // same buckets as batch results; rehome_items only emits expired or
  // requeue-rejected items.
  std::vector<serving::ServedResult> control_out;
  const auto account_migration_results = [&] {
    for (const serving::ServedResult& r : control_out) {
      if (r.outcome.status == core::ScoreStatus::kDeadlineExceeded) {
        ++point.deadline_missed;
      } else {
        ++point.migration_dropped;
      }
    }
    control_out.clear();
  };
  const auto apply_new_supervisor_events = [&] {
    const auto& events = supervisor.events();
    for (; events_seen < events.size(); ++events_seen) {
      const serving::SupervisorEvent& event = events[events_seen];
      // Any event can carry migrations now (failover, quarantine,
      // recovery, escalation, supervisor-driven growth) — the handle
      // updates apply regardless; failover bookkeeping stays gated.
      point.items_migrated += event.items_requeued;
      follow_migrations(event.migrations);
      if (!event.failover) continue;
      any_failover = true;
      last_failover_us = std::max(last_failover_us, event.at_us);
      const std::uint64_t crash_at = chaos.crash_at_us(event.worker);
      if (point.detect_us == 0 && crash_at != UINT64_MAX &&
          event.at_us >= crash_at) {
        point.detect_us = event.at_us - crash_at;
      }
    }
  };

  std::vector<std::uint64_t> free_us(config.workers, 0);
  std::uint64_t poll_t = config.supervisor_poll_us;
  // UINT64_MAX = no growth pending (plain sentinel; an optional here
  // draws a -Wmaybe-uninitialized false positive from GCC).
  std::uint64_t grow_t = scenario.grow_at_us.value_or(UINT64_MAX);
  // Moves out with every batch end, so a fleet that keeps serving always
  // drains, however long its backlog or its batches: a busy worker's next
  // start is never later than its last batch end.
  std::uint64_t bound_us = arrival_us.back() + kDrainBoundUs;

  const auto total_depth = [&] {
    std::size_t depth = 0;
    for (std::size_t w = 0; w < server.workers(); ++w) {
      depth += server.shard(w).depth();
    }
    return depth;
  };

  std::vector<serving::ServedResult> results;
  std::vector<std::uint64_t> eff;

  std::size_t next_arrival = 0;
  while (next_arrival < num_requests || total_depth() > 0) {
    // Candidate events, earliest wins; control plane (growth, then the
    // supervisor) beats the data plane at equal times so failover and
    // re-placement happen before work lands on a retiring shard. A batch
    // start beats an arrival at equal times, freeing queue space before
    // the arrival is offered.
    const bool have_arrival = next_arrival < num_requests;

    // The earliest batch start across active workers: a worker can begin
    // when it is free, alive, its batch window has elapsed (or the batch
    // is full), and — since queue state only changes at events — never
    // before the last processed event. Lowest worker index wins ties.
    bool have_service = false;
    std::size_t sw = 0;
    std::uint64_t s_start = 0;
    for (const std::size_t w : server.active_worker_ids()) {
      const auto ready = server.shard(w).batch_ready_us();
      if (!ready.has_value()) continue;
      std::uint64_t start = std::max({free_us[w], *ready, clock.now_us()});
      start = next_alive_at(chaos, w, start);
      if (start == UINT64_MAX) continue;  // crashed: waits for failover
      if (!have_service || start < s_start) {
        have_service = true;
        sw = w;
        s_start = start;
      }
    }

    std::uint64_t next_event = grow_t;
    if (have_arrival) next_event = std::min(next_event, arrival_us[next_arrival]);
    if (have_service) next_event = std::min(next_event, s_start);
    next_event = std::min(next_event, poll_t);

    if (next_event > bound_us) break;  // wedged fleet: bail to stranded

    if (grow_t == next_event) {
      clock.set(grow_t);
      serving::ResizeReport report;
      const std::size_t w = server.add_worker(control_out, &report);
      supervisor.watch(w);
      free_us.push_back(0);
      account_migration_results();
      point.items_migrated += report.items_requeued;
      point.sessions_migrated += report.sessions.size();
      follow_migrations(report.sessions);
      grow_t = UINT64_MAX;
      continue;
    }

    if (poll_t == next_event) {
      clock.set(poll_t);
      // Live workers stamp their heartbeat at the poll tick — the
      // discrete-time stand-in for the pump's per-iteration beat.
      // Quarantined workers beat too (their process is alive, merely
      // fenced off the ring): that fresh-epoch beat IS the probe signal
      // recovery waits for. Only retired workers stay silent.
      for (std::size_t w = 0; w < server.workers(); ++w) {
        if (server.worker_state(w) == serving::WorkerState::kRetired) {
          continue;
        }
        if (chaos.alive(w, poll_t)) server.shard(w).beat();
      }
      supervisor.poll(control_out);
      account_migration_results();
      apply_new_supervisor_events();
      // The supervisor may have grown the fleet inside poll().
      while (free_us.size() < server.workers()) free_us.push_back(0);
      poll_t += config.supervisor_poll_us;
      continue;
    }

    if (have_service && s_start == next_event) {
      clock.set(s_start);
      const auto planned = server.form_batch(sw);
      // s_start >= the shard's ready time and the queue is untouched
      // since it was computed, so the batch always forms.
      VIBGUARD_REQUIRE(planned.has_value(), "ready batch failed to form");

      // Walk the batch serially: one setup cost, then per-item service.
      // The service time is modeled, so mid-flight expiry cannot be
      // observed by really running the clock into the deadline (that
      // would reorder events against later arrivals). Instead expiry is
      // decided analytically: a doomed item scores under an
      // already-expired deadline (cancellation at the first stage
      // boundary) while the worker stays occupied until the cancellation
      // instant.
      const double slow = chaos.slowdown(sw, s_start);
      const std::uint64_t service_us = static_cast<std::uint64_t>(
          static_cast<double>(planned->degraded
                                  ? config.base.service_us_degraded
                                  : config.base.service_us_primary) *
          slow);
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
      run.makespan_us = std::max(run.makespan_us, t_us);
      bound_us = std::max(bound_us, t_us + kDrainBoundUs);

      for (const serving::ServedResult& r : results) {
        if (r.expired_in_queue) continue;  // counted at formation
        if (r.outcome.status == core::ScoreStatus::kDeadlineExceeded) {
          ++point.deadline_missed;
          continue;
        }
        if (chaos.result_lost(sw, r.request_id, s_start)) {
          ++point.results_lost;
          continue;
        }
        ++point.answered;
        answered_req[r.request_id] = true;
        answered_queue_us.push_back(r.queue_us);
        if (r.migrated) ++point.served_migrated;
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
            break;  // handled above
        }
      }
      continue;
    }

    // Arrival: route it to its session's shard.
    clock.set(arrival_us[next_arrival]);
    const std::size_t i = next_arrival;
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
        break;
      case serving::SubmitStatus::kRejectedQueueFull:
        ++point.rejected;
        break;
      case serving::SubmitStatus::kRejectedTenantQuota:
        ++point.quota_rejected;
        break;
      case serving::SubmitStatus::kRejectedClosed:
        ++point.closed_rejected;
        break;
      case serving::SubmitStatus::kStaleSession:
        VIBGUARD_REQUIRE(false,
                         "fleet replay lost a session handle across "
                         "migration");
    }
    ++next_arrival;
  }

  // Fold the per-shard accounting. Whatever is still queued when the
  // bound tripped is accounted explicitly, never dropped on the floor.
  for (std::size_t w = 0; w < server.workers(); ++w) {
    const serving::Shard& shard = server.shard(w);
    point.stranded += shard.depth();
    if (shard.breaker() != nullptr) {
      point.breaker_trips += shard.breaker()->trips();
    }
    const serving::ShardStats stats = shard.stats();
    run.dequeued += stats.admission.dequeued;
    run.total_queue_us += stats.admission.total_queue_us;
    run.batches += stats.batches;
    run.batched_items += stats.batched_items;
  }

  point.workers_end = server.active_worker_ids().size();
  const serving::SupervisorStats& sup = supervisor.stats();
  point.failovers = sup.failovers;
  point.sessions_migrated += sup.sessions_migrated;
  point.steals = sup.steals;
  point.items_stolen = sup.items_stolen;
  point.quarantines = sup.quarantines;
  point.recoveries = sup.recoveries;
  point.escalations = sup.escalations;
  point.grows = sup.grows;
  point.flap_suppressed = sup.flap_suppressed;
  point.queue_age_p95_us = percentile_nearest_rank(answered_queue_us, 95.0);
  const auto& remediation_log = supervisor.remediation_log();
  if (!remediation_log.events().empty() && !scenario.plan.empty()) {
    std::uint64_t fault_onset = UINT64_MAX;
    for (const faults::WorkerFault& fault : scenario.plan.faults()) {
      fault_onset = std::min(fault_onset, fault.from_us);
    }
    const std::uint64_t first_action = remediation_log.events().front().at_us;
    if (first_action >= fault_onset) {
      point.remediate_us = first_action - fault_onset;
    }
  }
  point.availability = static_cast<double>(point.answered) /
                       static_cast<double>(num_requests);
  point.post_failover_availability = std::numeric_limits<double>::quiet_NaN();
  if (any_failover) {
    std::size_t after = 0, answered_after = 0;
    for (std::size_t i = 0; i < num_requests; ++i) {
      if (arrival_us[i] <= last_failover_us) continue;
      ++after;
      if (answered_req[i]) ++answered_after;
    }
    if (after > 0) {
      point.post_failover_availability =
          static_cast<double>(answered_after) / static_cast<double>(after);
    }
  }
  point.eer_primary = eer_or_nan(attack_pri, legit_pri);
  point.eer_degraded = eer_or_nan(attack_deg, legit_deg);

  point.accounted =
      point.arrivals ==
      point.rejected + point.quota_rejected + point.closed_rejected +
          point.answered + point.deadline_missed + point.migration_dropped +
          point.results_lost + point.stranded;
  return run;
}

ChaosSweepResult run_chaos_sweep(const ChaosSweepConfig& config,
                                 std::uint64_t seed) {
  VIBGUARD_REQUIRE(config.workers >= 2,
                   "chaos sweep needs at least two workers to fail over");
  VIBGUARD_REQUIRE(config.offered_rps > 0.0, "offered load must be positive");
  VIBGUARD_REQUIRE(config.sessions > 0, "need at least one session");
  VIBGUARD_REQUIRE(config.tenants > 0, "need at least one tenant");

  SweepPopulation pop;
  render_sweep_population(config.base, seed, pop);
  const std::vector<std::uint64_t> arrival_us = poisson_arrivals(
      pop.arrival_rng, 0, config.offered_rps, pop.order.size());
  const std::uint64_t horizon_us = arrival_us.back();

  std::vector<ChaosScenario> all_scenarios;
  if (config.scenarios.empty()) {
    all_scenarios = default_chaos_scenarios(horizon_us);
    std::vector<ChaosScenario> remediation =
        remediation_chaos_scenarios(horizon_us, config.workers);
    for (ChaosScenario& s : remediation) {
      all_scenarios.push_back(std::move(s));
    }
  } else {
    all_scenarios = config.scenarios;
  }
  std::vector<ChaosScenario> scenarios;
  if (config.scenario_filter.empty()) {
    scenarios = std::move(all_scenarios);
  } else {
    for (ChaosScenario& s : all_scenarios) {
      if (s.name == config.scenario_filter) scenarios.push_back(std::move(s));
    }
    VIBGUARD_REQUIRE(!scenarios.empty(),
                     "unknown chaos scenario: " + config.scenario_filter);
  }

  ChaosSweepResult result;
  for (const ChaosScenario& scenario : scenarios) {
    result.points.push_back(
        replay_fleet(pop, arrival_us, config, scenario).point);
  }
  return result;
}

}  // namespace vibguard::eval
