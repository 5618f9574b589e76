// Chaos sweep acceptance: every arrival lands in exactly one accounting
// bucket under every default scenario, a mid-run crash fails over with
// nothing silently lost, growth restores the fleet, the no-fault scenario
// is bit-identical to the fleet sweep (chaos machinery adds zero
// perturbation when no fault fires), a fixed (seed, chaos_seed)
// reproduces the exact run, and the remediation trio each fires its rung:
// slow_steal cuts the answered queue-wait tail versus a no-steal control,
// wedge_recover quarantines and restores without a failover, and
// overload_grow ends with a larger fleet and nothing silently lost.
#include "eval/chaos_sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "eval/load_sweep.hpp"

namespace vibguard::eval {
namespace {

constexpr std::uint64_t kSeed = 2026;

LoadSweepConfig small_base() {
  LoadSweepConfig base;
  base.num_speakers = 2;
  base.legit_trials = 8;
  base.attack_trials = 8;
  return base;
}

ChaosSweepConfig small_config() {
  ChaosSweepConfig config;
  config.base = small_base();
  config.offered_rps = 30.0;
  config.workers = 3;
  return config;
}

/// Exact double equality where NaN == NaN (EER is NaN when a route kept
/// fewer than two scores per class).
bool same_double(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return a == b;
}

const ChaosSweepPoint& point_named(const ChaosSweepResult& result,
                                   const std::string& name) {
  for (const ChaosSweepPoint& p : result.points) {
    if (p.scenario == name) return p;
  }
  ADD_FAILURE() << "no scenario named " << name;
  static ChaosSweepPoint none;
  return none;
}

/// The whole sweep, computed once (rendering the population per test
/// would dominate the suite's runtime).
const ChaosSweepResult& sweep() {
  static const ChaosSweepResult result = run_chaos_sweep(small_config(),
                                                         kSeed);
  return result;
}

TEST(ChaosSweepTest, EveryDefaultScenarioAccountsForEveryArrival) {
  const ChaosSweepResult& result = sweep();
  // none + 4 fault kinds + crash_grow + the remediation trio.
  ASSERT_EQ(result.points.size(), 9u);
  for (const ChaosSweepPoint& p : result.points) {
    EXPECT_TRUE(p.accounted) << p.scenario;
    EXPECT_GT(p.arrivals, 0u) << p.scenario;
    EXPECT_EQ(p.arrivals,
              p.rejected + p.quota_rejected + p.closed_rejected + p.answered +
                  p.deadline_missed + p.migration_dropped + p.results_lost +
                  p.stranded)
        << p.scenario;
    EXPECT_GT(p.answered, 0u) << p.scenario;
    EXPECT_GT(p.availability, 0.0) << p.scenario;
    EXPECT_LE(p.availability, 1.0) << p.scenario;
  }
}

TEST(ChaosSweepTest, NoFaultScenarioSeesNoChaos) {
  const ChaosSweepPoint& none = point_named(sweep(), "none");
  EXPECT_EQ(none.failovers, 0u);
  EXPECT_EQ(none.sessions_migrated, 0u);
  EXPECT_EQ(none.results_lost, 0u);
  EXPECT_EQ(none.migration_dropped, 0u);
  EXPECT_EQ(none.closed_rejected, 0u);
  EXPECT_EQ(none.workers_end, none.workers_start);
}

TEST(ChaosSweepTest, CrashFailsOverWithNothingSilentlyLost) {
  const ChaosSweepPoint& crash = point_named(sweep(), "crash_w1");
  EXPECT_TRUE(crash.accounted);
  EXPECT_EQ(crash.failovers, 1u);
  EXPECT_EQ(crash.workers_end, crash.workers_start - 1);
  EXPECT_GT(crash.sessions_migrated, 0u);
  // Detection latency: dead_after_us of silence, resolved at poll
  // granularity. The last beat can predate the crash by up to one poll
  // tick (the age clock starts at the beat, not the crash), so detection
  // lands within one poll either side of the threshold.
  const ChaosSweepConfig config = small_config();
  EXPECT_GE(crash.detect_us,
            config.supervisor.dead_after_us - config.supervisor_poll_us);
  EXPECT_LE(crash.detect_us,
            config.supervisor.dead_after_us + 2 * config.supervisor_poll_us);
  // The survivors drained everything: nothing stranded at the bound, and
  // the fleet kept answering after the failover completed.
  EXPECT_EQ(crash.stranded, 0u);
  EXPECT_GT(crash.post_failover_availability, 0.0);
}

TEST(ChaosSweepTest, GrowthRestoresTheFleetAfterACrash) {
  const ChaosSweepPoint& grow = point_named(sweep(), "crash_grow");
  EXPECT_TRUE(grow.accounted);
  EXPECT_EQ(grow.failovers, 1u);
  EXPECT_EQ(grow.workers_end, grow.workers_start);  // one lost, one grown
  EXPECT_EQ(grow.stranded, 0u);
  // Post-recovery acceptance beats the still-degraded crash scenario's.
  const ChaosSweepPoint& crash = point_named(sweep(), "crash_w1");
  EXPECT_GE(grow.availability, crash.availability);
}

TEST(ChaosSweepTest, LossyFaultEatsRepliesButNeverTheAccounting) {
  // The default lossy_w1 scenario can legitimately lose zero replies on a
  // small population (one worker, p=0.3), so force the issue: every reply
  // on every worker is eaten. Nothing is answered, everything lands in
  // results_lost (or another explicit bucket) — the identity still holds.
  ChaosSweepConfig config = small_config();
  faults::ChaosPlan plan;
  for (std::size_t w = 0; w < config.workers; ++w) {
    plan.lossy(w, 0, UINT64_MAX, 1.0);
  }
  config.scenarios.push_back({"lossy_all", plan, std::nullopt, std::nullopt});
  const ChaosSweepResult result = run_chaos_sweep(config, kSeed);
  ASSERT_EQ(result.points.size(), 1u);
  const ChaosSweepPoint& lossy = result.points[0];
  EXPECT_TRUE(lossy.accounted);
  EXPECT_GT(lossy.results_lost, 0u);
  EXPECT_EQ(lossy.answered, 0u);
  EXPECT_EQ(lossy.failovers, 0u);  // lossy workers still heartbeat

  // And the default single-worker lossy scenario stays fully accounted
  // whether or not any draw actually fired.
  const ChaosSweepPoint& dflt = point_named(sweep(), "lossy_w1");
  EXPECT_TRUE(dflt.accounted);
  EXPECT_EQ(dflt.failovers, 0u);
}

TEST(ChaosSweepTest, NoFaultScenarioIsBitIdenticalToFleetSweep) {
  // The chaos driver with an empty plan must be the fleet sweep, exactly:
  // same arrivals, same admissions, same scores — the chaos machinery
  // (controller queries, supervisor polls, heartbeats) adds zero
  // perturbation until a fault actually fires.
  ChaosSweepConfig chaos_cfg = small_config();
  chaos_cfg.scenarios.push_back(
      {"none", faults::ChaosPlan{}, std::nullopt, std::nullopt});
  const ChaosSweepResult chaos = run_chaos_sweep(chaos_cfg, kSeed);
  ASSERT_EQ(chaos.points.size(), 1u);
  const ChaosSweepPoint& c = chaos.points[0];

  FleetSweepConfig fleet_cfg;
  fleet_cfg.base = small_base();
  fleet_cfg.base.offered_rps = {chaos_cfg.offered_rps};
  fleet_cfg.workers = {chaos_cfg.workers};
  fleet_cfg.sessions = chaos_cfg.sessions;
  fleet_cfg.tenants = chaos_cfg.tenants;
  fleet_cfg.batch_max = chaos_cfg.batch_max;
  fleet_cfg.batch_window_us = chaos_cfg.batch_window_us;
  fleet_cfg.batch_setup_us = chaos_cfg.batch_setup_us;
  fleet_cfg.ring_replicas = chaos_cfg.ring_replicas;
  const FleetSweepResult fleet = run_fleet_sweep(fleet_cfg, kSeed);
  ASSERT_EQ(fleet.points.size(), 1u);
  const FleetSweepPoint& f = fleet.points[0];

  EXPECT_EQ(c.arrivals, f.arrivals);
  EXPECT_EQ(c.admitted, f.admitted);
  EXPECT_EQ(c.rejected, f.rejected);
  EXPECT_EQ(c.quota_rejected, f.quota_rejected);
  EXPECT_EQ(c.deadline_missed, f.deadline_missed);
  EXPECT_EQ(c.scored_primary, f.scored_primary);
  EXPECT_EQ(c.scored_degraded, f.scored_degraded);
  EXPECT_EQ(c.indeterminate, f.indeterminate);
  EXPECT_EQ(c.errors, f.errors);
  EXPECT_EQ(c.breaker_trips, f.breaker_trips);
  // Bit-identical scores: the EERs agree to the last ulp, not a tolerance.
  EXPECT_TRUE(same_double(c.eer_primary, f.eer_primary))
      << c.eer_primary << " vs " << f.eer_primary;
  EXPECT_TRUE(same_double(c.eer_degraded, f.eer_degraded))
      << c.eer_degraded << " vs " << f.eer_degraded;
}

TEST(ChaosSweepTest, SlowStealScenarioStealsAndRemediatesQuickly) {
  const ChaosSweepPoint& steal = point_named(sweep(), "slow_steal");
  EXPECT_TRUE(steal.accounted);
  EXPECT_GT(steal.steals, 0u);
  EXPECT_GT(steal.items_stolen, 0u);
  // The rung it exercises is the ONLY one that fires.
  EXPECT_EQ(steal.quarantines, 0u);
  EXPECT_EQ(steal.grows, 0u);
  EXPECT_EQ(steal.failovers, 0u);
  // Time-to-remediate: the first steal lands within a few polls of the
  // first stall (the victim must cross slow_after first, so it cannot be
  // instant either).
  EXPECT_GT(steal.remediate_us, 0u);
  EXPECT_LE(steal.remediate_us, 100'000u);
}

TEST(ChaosSweepTest, StealingCutsTheQueueTailVersusNoStealControl) {
  // Same fault plan twice — three 40 ms stalls on worker 1 — once with
  // the steal rung on, once with remediation off entirely. Stealing must
  // strictly cut the p95 queue wait of what got answered: that tail is
  // the reason the rung exists.
  ChaosSweepConfig config = small_config();
  faults::ChaosPlan plan;
  for (std::uint64_t at : {100'000u, 200'000u, 300'000u}) {
    plan.stall(1, at, at + 40'000);
  }
  serving::RemediationConfig steal_on;
  steal_on.enabled = true;
  steal_on.steal = true;
  steal_on.steal_min_depth = 1;
  steal_on.quarantine = false;
  steal_on.grow = false;
  config.scenarios.push_back({"steal_on", plan, std::nullopt, steal_on});
  config.scenarios.push_back({"steal_off", plan, std::nullopt, std::nullopt});

  const ChaosSweepResult result = run_chaos_sweep(config, kSeed);
  ASSERT_EQ(result.points.size(), 2u);
  const ChaosSweepPoint& on = point_named(result, "steal_on");
  const ChaosSweepPoint& off = point_named(result, "steal_off");
  EXPECT_TRUE(on.accounted);
  EXPECT_TRUE(off.accounted);
  EXPECT_GT(on.items_stolen, 0u);
  EXPECT_EQ(off.items_stolen, 0u);
  EXPECT_LT(on.queue_age_p95_us, off.queue_age_p95_us);
}

TEST(ChaosSweepTest, WedgeRecoverQuarantinesAndRestoresWithoutFailover) {
  const ChaosSweepPoint& wedge = point_named(sweep(), "wedge_recover");
  EXPECT_TRUE(wedge.accounted);
  EXPECT_EQ(wedge.quarantines, 1u);
  EXPECT_EQ(wedge.recoveries, 1u);
  EXPECT_EQ(wedge.escalations, 0u);
  EXPECT_EQ(wedge.failovers, 0u);
  // The worker came back: the fleet ends at full strength.
  EXPECT_EQ(wedge.workers_end, wedge.workers_start);
  EXPECT_GT(wedge.remediate_us, 0u);
}

TEST(ChaosSweepTest, OverloadGrowEndsWithMoreWorkersAndNothingLost) {
  const ChaosSweepPoint& grow = point_named(sweep(), "overload_grow");
  EXPECT_TRUE(grow.accounted);  // zero silently-lost requests
  EXPECT_GE(grow.grows, 1u);
  EXPECT_GT(grow.workers_end, grow.workers_start);
  EXPECT_EQ(grow.failovers, 0u);
  EXPECT_EQ(grow.stranded, 0u);
  EXPECT_GT(grow.answered, 0u);
}

TEST(ChaosSweepTest, ScenarioFilterSelectsOneAndRejectsUnknownNames) {
  ChaosSweepConfig config = small_config();
  config.scenario_filter = "wedge_recover";
  const ChaosSweepResult result = run_chaos_sweep(config, kSeed);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].scenario, "wedge_recover");

  config.scenario_filter = "no_such_scenario";
  EXPECT_THROW(run_chaos_sweep(config, kSeed), InvalidArgument);
}

TEST(ChaosSweepTest, RejectsBadConfig) {
  ChaosSweepConfig config = small_config();
  config.workers = 1;
  EXPECT_THROW(run_chaos_sweep(config, kSeed), InvalidArgument);
  config = small_config();
  config.offered_rps = 0.0;
  EXPECT_THROW(run_chaos_sweep(config, kSeed), InvalidArgument);
  config = small_config();
  config.sessions = 0;
  EXPECT_THROW(run_chaos_sweep(config, kSeed), InvalidArgument);
  config = small_config();
  config.tenants = 0;
  EXPECT_THROW(run_chaos_sweep(config, kSeed), InvalidArgument);
  // An empty population has no arrivals to replay (and no horizon to
  // scale the fault windows by).
  config = small_config();
  config.base.legit_trials = 0;
  config.base.attack_trials = 0;
  EXPECT_THROW(run_chaos_sweep(config, kSeed), InvalidArgument);
}

TEST(ChaosSweepTest, FixedSeedsReproduceTheExactRun) {
  const ChaosSweepResult& first = sweep();
  const ChaosSweepResult second = run_chaos_sweep(small_config(), kSeed);
  ASSERT_EQ(second.points.size(), first.points.size());
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    const ChaosSweepPoint& a = first.points[i];
    const ChaosSweepPoint& b = second.points[i];
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.answered, b.answered);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.deadline_missed, b.deadline_missed);
    EXPECT_EQ(a.migration_dropped, b.migration_dropped);
    EXPECT_EQ(a.results_lost, b.results_lost);
    EXPECT_EQ(a.stranded, b.stranded);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.sessions_migrated, b.sessions_migrated);
    EXPECT_EQ(a.items_migrated, b.items_migrated);
    EXPECT_EQ(a.detect_us, b.detect_us);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.items_stolen, b.items_stolen);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.escalations, b.escalations);
    EXPECT_EQ(a.grows, b.grows);
    EXPECT_EQ(a.flap_suppressed, b.flap_suppressed);
    EXPECT_EQ(a.remediate_us, b.remediate_us);
    EXPECT_EQ(a.queue_age_p95_us, b.queue_age_p95_us);
    EXPECT_TRUE(same_double(a.eer_primary, b.eer_primary)) << a.scenario;
    EXPECT_TRUE(same_double(a.availability, b.availability)) << a.scenario;
  }
}

}  // namespace
}  // namespace vibguard::eval
