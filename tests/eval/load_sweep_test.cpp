#include "eval/load_sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dsp/simd.hpp"

namespace vibguard::eval {
namespace {

LoadSweepConfig small_config() {
  LoadSweepConfig cfg;
  cfg.num_speakers = 2;
  cfg.legit_trials = 8;
  cfg.attack_trials = 8;
  // One light point (offered interarrival ~10x the service time) and one
  // overloaded point. The heavy rate is deliberately moderate (~1.5x the
  // service rate, not 1000x): the queue must stay saturated yet keep
  // draining, so the server both rejects at the full queue AND works
  // through enough stale requests to string consecutive deadline misses
  // together — an arrival burst far faster than the server just bounces
  // everything off the queue before a second miss can happen — and the
  // post-trip backlog still has budget left to be answered degraded.
  cfg.offered_rps = {0.5, 10.0};
  cfg.service_us_primary = 150'000;
  cfg.service_us_degraded = 30'000;
  cfg.deadline_us = 400'000;
  cfg.queue_capacity = 4;
  cfg.breaker = serving::BreakerConfig{2, 500'000};
  return cfg;
}

/// The single serving node: one worker with micro-batching off.
FleetSweepConfig single_node(const LoadSweepConfig& base) {
  FleetSweepConfig cfg;
  cfg.base = base;
  cfg.workers = {1};
  cfg.batch_max = 1;
  cfg.batch_window_us = 0;
  cfg.batch_setup_us = 0;
  return cfg;
}

/// One row of the single-node table, as recorded from the former
/// dedicated single-node simulator.
struct SingleNodeRow {
  std::size_t admitted, rejected, deadline_missed, scored_primary,
      scored_degraded, breaker_trips;
  double mean_queue_us, eer_primary, eer_degraded;
};

/// Exact double equality where NaN == NaN.
bool same_double(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

TEST(LoadSweepTest, SingleNodeReproducesRecordedRows) {
  // small_config() at seeds 42 and 7, both loads: counts, mean queue time
  // and EER bits must match the dedicated single-node simulator the
  // one-worker fleet replaced. No row is indeterminate or errors.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::uint64_t, std::vector<SingleNodeRow>>>
      recorded = {
          {42,
           {{16, 0, 0, 16, 0, 0, 0.0, 0x1p-3, nan},
            {13, 3, 2, 7, 4, 1, 0x1.0aa7b13b13b14p+17, 0x1.9999999999998p-3,
             nan}}},
          {7,
           {{16, 0, 0, 16, 0, 0, 0.0, 0.0, nan},
            {16, 0, 2, 7, 7, 1, 0x1.faf9bp+16, 0.0, 0x1.5555555555556p-2}}},
      };
  for (const auto& [seed, rows] : recorded) {
    const FleetSweepResult result =
        run_fleet_sweep(single_node(small_config()), seed);
    ASSERT_EQ(result.points.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const FleetSweepPoint& p = result.points[i];
      const SingleNodeRow& want = rows[i];
      SCOPED_TRACE(testing::Message() << "seed " << seed << " row " << i);
      EXPECT_EQ(p.arrivals, 16u);
      EXPECT_EQ(p.admitted, want.admitted);
      EXPECT_EQ(p.rejected, want.rejected);
      EXPECT_EQ(p.deadline_missed, want.deadline_missed);
      EXPECT_EQ(p.scored_primary, want.scored_primary);
      EXPECT_EQ(p.scored_degraded, want.scored_degraded);
      EXPECT_EQ(p.indeterminate, 0u);
      EXPECT_EQ(p.errors, 0u);
      EXPECT_EQ(p.breaker_trips, want.breaker_trips);
      EXPECT_EQ(p.mean_queue_us, want.mean_queue_us);
      EXPECT_TRUE(same_double(p.eer_primary, want.eer_primary))
          << p.eer_primary;
      EXPECT_TRUE(same_double(p.eer_degraded, want.eer_degraded))
          << p.eer_degraded;
    }
  }
}

TEST(LoadSweepTest, RunsEndToEndAndConservesCounts) {
  const FleetSweepConfig cfg = single_node(small_config());
  const FleetSweepResult result = run_fleet_sweep(cfg, 42);
  ASSERT_EQ(result.points.size(), cfg.base.offered_rps.size());
  for (const FleetSweepPoint& p : result.points) {
    EXPECT_EQ(p.arrivals, cfg.base.legit_trials + cfg.base.attack_trials);
    // Every arrival is either admitted or rejected...
    EXPECT_EQ(p.admitted + p.rejected, p.arrivals);
    // ...and every admitted request ends in exactly one terminal state.
    EXPECT_EQ(p.scored_primary + p.scored_degraded + p.indeterminate +
                  p.errors + p.deadline_missed,
              p.admitted);
  }
}

TEST(LoadSweepTest, SlowBatchesStillDrainTheWholeBacklog) {
  // Without faults the loop always drains: every admitted request ends in
  // a bucket however far past the last arrival the backlog runs. Two
  // shapes: full batches of 4 x 3 s on one worker, and two workers whose
  // partial batches wait out an 11 s window (a fixed 10 s drain bound past
  // the last arrival once cut both short).
  FleetSweepConfig slow;
  slow.base = small_config();
  slow.base.legit_trials = 4;
  slow.base.attack_trials = 4;
  slow.base.offered_rps = {10.0};
  slow.base.service_us_primary = 3'000'000;
  slow.base.deadline_us = 100'000'000;
  slow.base.queue_capacity = 16;
  slow.workers = {1};
  slow.batch_max = 4;
  FleetSweepConfig long_window = slow;
  long_window.base.service_us_primary = small_config().service_us_primary;
  long_window.workers = {2};
  long_window.batch_window_us = 11'000'000;
  for (const FleetSweepConfig& cfg : {slow, long_window}) {
    const FleetSweepResult result = run_fleet_sweep(cfg, 42);
    ASSERT_EQ(result.points.size(), 1u);
    const FleetSweepPoint& p = result.points[0];
    SCOPED_TRACE(testing::Message() << "window " << cfg.batch_window_us);
    EXPECT_EQ(p.arrivals, 8u);
    EXPECT_EQ(p.admitted, p.arrivals);
    EXPECT_EQ(p.scored_primary + p.scored_degraded + p.indeterminate +
                  p.errors + p.deadline_missed,
              p.admitted);
    EXPECT_EQ(p.deadline_missed, 0u);
  }
}

TEST(LoadSweepTest, LightLoadServesEverythingInBudget) {
  const FleetSweepResult result =
      run_fleet_sweep(single_node(small_config()), 42);
  const FleetSweepPoint& light = result.points.front();
  EXPECT_EQ(light.rejected, 0u);
  EXPECT_EQ(light.deadline_missed, 0u);
  EXPECT_EQ(light.scored_degraded, 0u);  // breaker never needed
  EXPECT_GT(light.scored_primary, 0u);
  // With 8+8 scored trials the primary EER is a real number.
  EXPECT_FALSE(std::isnan(light.eer_primary));
}

TEST(LoadSweepTest, OverloadTriggersBackpressureAndDeadlineMisses) {
  const FleetSweepResult result =
      run_fleet_sweep(single_node(small_config()), 42);
  const FleetSweepPoint& heavy = result.points.back();
  // At 10 rps against a 150 ms server the queue of 4 cannot keep up:
  // arrivals bounce off the full queue, queued requests blow their 400 ms
  // budgets, consecutive misses trip the breaker, and the remaining
  // backlog is answered on the cheap degraded path within budget.
  EXPECT_GT(heavy.rejected, 0u);
  EXPECT_GT(heavy.deadline_missed, 0u);
  EXPECT_GT(heavy.breaker_trips, 0u);
  EXPECT_GT(heavy.scored_degraded, 0u);
  EXPECT_GT(heavy.mean_queue_us, 0.0);
}

TEST(LoadSweepTest, DeterministicForSameSeed) {
  const FleetSweepConfig cfg = single_node(small_config());
  const FleetSweepResult a = run_fleet_sweep(cfg, 7);
  const FleetSweepResult b = run_fleet_sweep(cfg, 7);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].admitted, b.points[i].admitted);
    EXPECT_EQ(a.points[i].rejected, b.points[i].rejected);
    EXPECT_EQ(a.points[i].deadline_missed, b.points[i].deadline_missed);
    EXPECT_EQ(a.points[i].scored_primary, b.points[i].scored_primary);
    EXPECT_EQ(a.points[i].scored_degraded, b.points[i].scored_degraded);
    EXPECT_EQ(a.points[i].breaker_trips, b.points[i].breaker_trips);
    EXPECT_EQ(a.points[i].mean_queue_us, b.points[i].mean_queue_us);
    EXPECT_TRUE(same_double(a.points[i].eer_primary, b.points[i].eer_primary));
  }
}

TEST(LoadSweepTest, SummaryPrintsOneRowPerLoadPoint) {
  const FleetSweepResult result =
      run_fleet_sweep(single_node(small_config()), 42);
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("load sweep"), std::string::npos);
  EXPECT_NE(summary.find("EERpri"), std::string::npos);
  std::size_t rows = 0;
  for (char c : summary) rows += c == '\n';
  EXPECT_EQ(rows, 2 + result.points.size());  // title + header + points
}

FleetSweepConfig small_fleet() {
  FleetSweepConfig cfg;
  cfg.base = small_config();
  cfg.base.offered_rps = {0.5};  // light load: everything should serve
  cfg.workers = {1, 2, 3};
  cfg.sessions = 6;
  cfg.batch_max = 3;
  cfg.batch_window_us = 20'000;
  return cfg;
}

TEST(FleetSweepTest, LightLoadServesEverythingOnEveryWorkerCount) {
  const FleetSweepConfig cfg = small_fleet();
  const FleetSweepResult result = run_fleet_sweep(cfg, 42);
  ASSERT_EQ(result.points.size(), cfg.workers.size());
  for (const FleetSweepPoint& p : result.points) {
    EXPECT_EQ(p.arrivals, 16u);
    EXPECT_EQ(p.rejected, 0u);
    EXPECT_EQ(p.deadline_missed, 0u);
    EXPECT_EQ(p.scored_primary, p.arrivals);
    EXPECT_EQ(p.scored_degraded, 0u);
    EXPECT_GT(p.batches, 0u);
    EXPECT_GT(p.throughput_rps, 0.0);
    EXPECT_FALSE(std::isnan(p.eer_primary));
  }
}

TEST(FleetSweepTest, ScoringIsBitIdenticalAcrossWorkerCountsAndWindows) {
  // The fleet determinism contract at the sweep level: with a fixed seed,
  // the detection quality of what the fleet answered must not depend on
  // how the fleet was sharded or how requests were coalesced — only the
  // serving-side columns may move.
  const FleetSweepResult by_workers = run_fleet_sweep(small_fleet(), 42);
  ASSERT_EQ(by_workers.points.size(), 3u);
  const double eer = by_workers.points[0].eer_primary;
  ASSERT_FALSE(std::isnan(eer));
  for (const FleetSweepPoint& p : by_workers.points) {
    EXPECT_EQ(p.eer_primary, eer);  // bitwise, not approximate
    EXPECT_EQ(p.scored_primary, by_workers.points[0].scored_primary);
  }

  FleetSweepConfig wide = small_fleet();
  wide.workers = {2};
  wide.batch_window_us = 0;
  wide.batch_max = 1;
  const FleetSweepResult no_batching = run_fleet_sweep(wide, 42);
  ASSERT_EQ(no_batching.points.size(), 1u);
  EXPECT_EQ(no_batching.points[0].eer_primary, eer);
}

TEST(FleetSweepTest, SmallFleetReproducesRecordedRows) {
  // small_fleet() at both loads over one to three workers, seed 42, at the
  // scalar SIMD level: every FleetSweepPoint field, doubles by their bits.
  // Recorded at commit f2cf8c1, before the fleet loop moved into
  // load_sweep.cpp; it pins the multi-worker columns (batches, average
  // batch, queue time, throughput) that the single-node rows leave free.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    std::size_t workers;
    double offered_rps;
    std::size_t arrivals, admitted, rejected, deadline_missed,
        scored_primary, scored_degraded, indeterminate, errors,
        breaker_trips, batches;
    double mean_batch, mean_queue_us, throughput_rps, eer_primary,
        eer_degraded;
  } kRows[] = {
      {1, 0x1p-1, 16, 16, 0, 0, 16, 0, 0, 0, 0, 16, 0x1p+0, 0x1.388p+14,
       0x1.aea1351251be6p-2, 0x1p-3, nan},
      {1, 0x1.4p+3, 16, 15, 1, 2, 6, 7, 0, 0, 1, 9, 0x1.aaaaaaaaaaaabp+0,
       0x1.b7abccccccccdp+16, 0x1.e2b03691dd427p+2, 0x1p-2,
       0x1.999999999999ap-1},
      {2, 0x1p-1, 16, 16, 0, 0, 16, 0, 0, 0, 0, 16, 0x1p+0, 0x1.388p+14,
       0x1.aea1351251be6p-2, 0x1p-3, nan},
      {2, 0x1.4p+3, 16, 15, 1, 2, 6, 7, 0, 0, 1, 9, 0x1.aaaaaaaaaaaabp+0,
       0x1.b7abccccccccdp+16, 0x1.e2b03691dd427p+2, 0x1p-2,
       0x1.999999999999ap-1},
      {3, 0x1p-1, 16, 16, 0, 0, 16, 0, 0, 0, 0, 16, 0x1p+0, 0x1.388p+14,
       0x1.aea1351251be6p-2, 0x1p-3, nan},
      {3, 0x1.4p+3, 16, 14, 2, 2, 8, 4, 0, 0, 1, 10, 0x1.6666666666666p+0,
       0x1.67d4a49249249p+16, 0x1.ccf02566de76ap+2, 0x1.9999999999998p-3,
       nan},
  };
  FleetSweepConfig cfg = small_fleet();
  cfg.base.offered_rps = {0.5, 10.0};
  const dsp::simd::Level prev = dsp::simd::active_level();
  ASSERT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
  const FleetSweepResult result = run_fleet_sweep(cfg, 42);
  dsp::simd::set_level(prev);

  const auto same_bits = [](double got, double want) {
    return std::bit_cast<std::uint64_t>(got) ==
           std::bit_cast<std::uint64_t>(want);
  };
  ASSERT_EQ(result.points.size(), std::size(kRows));
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const FleetSweepPoint& p = result.points[i];
    const auto& want = kRows[i];
    SCOPED_TRACE(testing::Message() << "row " << i);
    EXPECT_EQ(p.workers, want.workers);
    EXPECT_TRUE(same_bits(p.offered_rps, want.offered_rps));
    EXPECT_EQ(p.arrivals, want.arrivals);
    EXPECT_EQ(p.admitted, want.admitted);
    EXPECT_EQ(p.rejected, want.rejected);
    EXPECT_EQ(p.deadline_missed, want.deadline_missed);
    EXPECT_EQ(p.scored_primary, want.scored_primary);
    EXPECT_EQ(p.scored_degraded, want.scored_degraded);
    EXPECT_EQ(p.indeterminate, want.indeterminate);
    EXPECT_EQ(p.errors, want.errors);
    EXPECT_EQ(p.breaker_trips, want.breaker_trips);
    EXPECT_EQ(p.batches, want.batches);
    EXPECT_TRUE(same_bits(p.mean_batch, want.mean_batch))
        << "mean batch is " << std::hexfloat << p.mean_batch;
    EXPECT_TRUE(same_bits(p.mean_queue_us, want.mean_queue_us))
        << "mean queue us is " << std::hexfloat << p.mean_queue_us;
    EXPECT_TRUE(same_bits(p.throughput_rps, want.throughput_rps))
        << "throughput is " << std::hexfloat << p.throughput_rps;
    EXPECT_TRUE(same_bits(p.eer_primary, want.eer_primary))
        << "primary EER is " << std::hexfloat << p.eer_primary;
    EXPECT_TRUE(same_bits(p.eer_degraded, want.eer_degraded))
        << "degraded EER is " << std::hexfloat << p.eer_degraded;
  }
}

TEST(FleetSweepTest, ConservesCountsUnderOverload) {
  FleetSweepConfig cfg = small_fleet();
  cfg.base.offered_rps = {0.5, 10.0};
  cfg.workers = {1, 2};
  const FleetSweepResult result = run_fleet_sweep(cfg, 42);
  ASSERT_EQ(result.points.size(), 4u);  // workers grid x load grid
  for (const FleetSweepPoint& p : result.points) {
    EXPECT_EQ(p.admitted + p.rejected, p.arrivals);
    EXPECT_EQ(p.scored_primary + p.scored_degraded + p.indeterminate +
                  p.errors + p.deadline_missed,
              p.admitted);
  }
  // More workers must not serve less at the overloaded point.
  const FleetSweepPoint& heavy_1w = result.points[1];
  const FleetSweepPoint& heavy_2w = result.points[3];
  ASSERT_EQ(heavy_1w.workers, 1u);
  ASSERT_EQ(heavy_2w.workers, 2u);
  EXPECT_GE(heavy_2w.scored_primary + heavy_2w.scored_degraded,
            heavy_1w.scored_primary + heavy_1w.scored_degraded);
}

TEST(FleetSweepTest, SummaryPrintsOneRowPerGridCell) {
  const FleetSweepResult result = run_fleet_sweep(small_fleet(), 42);
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("fleet load sweep"), std::string::npos);
  EXPECT_NE(summary.find("wrk"), std::string::npos);
  std::size_t rows = 0;
  for (char c : summary) rows += c == '\n';
  EXPECT_EQ(rows, 2 + result.points.size());
}

TEST(FleetSweepTest, RejectsBadConfig) {
  FleetSweepConfig cfg = small_fleet();
  cfg.workers.clear();
  EXPECT_THROW(run_fleet_sweep(cfg, 1), Error);
  cfg = small_fleet();
  cfg.workers = {0};
  EXPECT_THROW(run_fleet_sweep(cfg, 1), Error);
  cfg = small_fleet();
  cfg.sessions = 0;
  EXPECT_THROW(run_fleet_sweep(cfg, 1), Error);
  cfg = small_fleet();
  cfg.base.legit_trials = 0;
  cfg.base.attack_trials = 0;
  EXPECT_THROW(run_fleet_sweep(cfg, 1), InvalidArgument);
}

TEST(LoadSweepTest, RejectsBadConfig) {
  FleetSweepConfig cfg = single_node(small_config());
  cfg.base.offered_rps.clear();
  EXPECT_THROW(run_fleet_sweep(cfg, 1), Error);
  cfg = single_node(small_config());
  cfg.base.offered_rps = {0.0};
  EXPECT_THROW(run_fleet_sweep(cfg, 1), Error);
  cfg = single_node(small_config());
  cfg.base.num_speakers = 1;
  EXPECT_THROW(run_fleet_sweep(cfg, 1), Error);
}

}  // namespace
}  // namespace vibguard::eval
