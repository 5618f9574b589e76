#include "eval/fault_sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace vibguard::eval {
namespace {

FaultSweepConfig small_config() {
  FaultSweepConfig cfg;
  cfg.num_speakers = 2;
  cfg.legit_trials = 3;
  cfg.attack_trials = 3;
  cfg.severities = {0.0, 1.0};
  return cfg;
}

bool same_metric(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

TEST(FaultSweepTest, DeterministicAcrossRunsAndThreadCounts) {
  FaultSweepConfig cfg = small_config();
  cfg.threads = 1;
  const auto first = run_fault_sweep(cfg, 77);
  const auto second = run_fault_sweep(cfg, 77);
  cfg.threads = 2;
  const auto threaded = run_fault_sweep(cfg, 77);

  ASSERT_EQ(first.points.size(), 2u);
  for (const auto* other : {&second, &threaded}) {
    ASSERT_EQ(other->points.size(), first.points.size());
    for (std::size_t i = 0; i < first.points.size(); ++i) {
      const auto& a = first.points[i];
      const auto& b = other->points[i];
      EXPECT_EQ(a.scored, b.scored) << "point " << i;
      EXPECT_EQ(a.indeterminate, b.indeterminate) << "point " << i;
      EXPECT_EQ(a.errors, b.errors) << "point " << i;
      EXPECT_TRUE(same_metric(a.eer, b.eer)) << "point " << i;
      EXPECT_TRUE(same_metric(a.auc, b.auc)) << "point " << i;
    }
  }
}

TEST(FaultSweepTest, EveryTrialIsAccountedForAtEverySeverity) {
  FaultSweepConfig cfg = small_config();
  cfg.severities = {0.0, 0.5, 1.0};
  cfg.fault = faults::FaultKind::kTruncation;
  const auto result = run_fault_sweep(cfg, 5);
  ASSERT_EQ(result.points.size(), 3u);
  const std::size_t total = cfg.legit_trials + cfg.attack_trials;
  for (const auto& p : result.points) {
    EXPECT_EQ(p.scored + p.indeterminate + p.errors, total)
        << "severity " << p.severity;
  }
}

TEST(FaultSweepTest, ZeroSeverityBaselineScoresEveryTrial) {
  const auto result = run_fault_sweep(small_config(), 9);
  const auto& base = result.points.front();
  EXPECT_DOUBLE_EQ(base.severity, 0.0);
  EXPECT_EQ(base.scored, 6u);
  EXPECT_EQ(base.indeterminate, 0u);
  EXPECT_EQ(base.errors, 0u);
  EXPECT_TRUE(std::isfinite(base.eer));
  EXPECT_TRUE(std::isfinite(base.auc));
}

TEST(FaultSweepTest, NonFiniteFaultDivertsTrialsToIndeterminate) {
  FaultSweepConfig cfg = small_config();
  cfg.fault = faults::FaultKind::kNonFinite;
  const auto result = run_fault_sweep(cfg, 11);
  const auto& severe = result.points.back();
  // Heavy NaN contamination: the permissive gate must divert trials rather
  // than let garbage scores through, and under-populated classes report NaN
  // metrics instead of a fabricated curve.
  EXPECT_GT(severe.indeterminate, 0u);
  if (severe.scored < 4) {
    EXPECT_TRUE(std::isnan(severe.eer));
  }
}

TEST(FaultSweepTest, SummaryNamesFaultAndSeverities) {
  FaultSweepConfig cfg = small_config();
  cfg.fault = faults::FaultKind::kClipping;
  const auto result = run_fault_sweep(cfg, 13);
  EXPECT_EQ(result.fault, faults::FaultKind::kClipping);
  EXPECT_EQ(result.fault_label, "clipping");
  const std::string text = result.summary();
  EXPECT_NE(text.find("clipping"), std::string::npos);
  EXPECT_NE(text.find("severity"), std::string::npos);
}

TEST(FaultSweepTest, RejectsEmptyPopulation) {
  FaultSweepConfig cfg = small_config();
  cfg.legit_trials = 0;
  cfg.attack_trials = 0;
  EXPECT_THROW(run_fault_sweep(cfg, 14), vibguard::InvalidArgument);
}

}  // namespace
}  // namespace vibguard::eval
