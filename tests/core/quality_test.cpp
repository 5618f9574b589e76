#include "core/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ios>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "dsp/generate.hpp"
#include "dsp/simd.hpp"

namespace vibguard::core {
namespace {

Signal tone_1s() { return dsp::tone(50.0, 1.0, 1000.0, 0.2); }

TEST(QualityTest, IssueNamesFormatting) {
  EXPECT_EQ(quality_issue_names(0), "none");
  EXPECT_EQ(quality_issue_names(kIssueClipping), "clipping");
  EXPECT_EQ(quality_issue_names(kIssueNonFinite | kIssueGaps),
            "non_finite+gaps");
  // Priority table order, not bit order.
  EXPECT_EQ(quality_issue_names(kIssueDcOffset | kIssueTooShort),
            "too_short+dc_offset");
}

TEST(QualityTest, CleanToneRaisesNoIssues) {
  const Signal s = tone_1s();
  const auto q = assess_channel(s, QualityConfig{});
  EXPECT_EQ(q.issues, 0u);
  EXPECT_EQ(q.samples, s.size());
  EXPECT_DOUBLE_EQ(q.duration_s, s.duration());
  EXPECT_NEAR(q.rms, 0.2 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(q.peak, 0.2, 1e-6);
  EXPECT_NEAR(q.dc_offset, 0.0, 1e-6);
  EXPECT_EQ(q.non_finite, 0u);
}

TEST(QualityTest, EmptyChannelIsTooShortAndDead) {
  const auto q = assess_channel(Signal({}, 1000.0), QualityConfig{});
  EXPECT_EQ(q.issues, kIssueTooShort | kIssueLowSignal);
  EXPECT_EQ(q.samples, 0u);
}

TEST(QualityTest, NonFiniteSamplesCountedAndFlagged) {
  Signal s = tone_1s();
  s[10] = std::numeric_limits<double>::quiet_NaN();
  s[20] = std::numeric_limits<double>::infinity();
  s[30] = -std::numeric_limits<double>::infinity();
  const auto q = assess_channel(s, QualityConfig{});
  EXPECT_EQ(q.non_finite, 3u);
  EXPECT_TRUE(q.issues & kIssueNonFinite);
  // The moments are still computed over the finite samples.
  EXPECT_GT(q.rms, 0.0);
  EXPECT_TRUE(std::isfinite(q.rms));
  EXPECT_TRUE(std::isfinite(q.peak));
}

TEST(QualityTest, ClippingCensusAgainstPeak) {
  // Square-ish wave: nearly every sample sits at the rails.
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 2 == 0) ? 0.5 : -0.5;
  const auto q = assess_channel(Signal(std::move(v), 1000.0), QualityConfig{});
  EXPECT_TRUE(q.issues & kIssueClipping);
  EXPECT_DOUBLE_EQ(q.clip_ratio, 1.0);
  // A clean tone spends only its crests near the peak.
  const auto clean = assess_channel(tone_1s(), QualityConfig{});
  EXPECT_LT(clean.clip_ratio, 0.20);
}

TEST(QualityTest, GapCensusCountsOnlyLongZeroRuns) {
  QualityConfig cfg;  // min_gap_s 0.005 -> 5 samples at 1 kHz
  std::vector<double> v(1000, 0.1);
  // One 400-sample gap (counts) and one 3-sample blip (does not).
  for (std::size_t i = 100; i < 500; ++i) v[i] = 0.0;
  for (std::size_t i = 700; i < 703; ++i) v[i] = 0.0;
  const auto q = assess_channel(Signal(std::move(v), 1000.0), cfg);
  EXPECT_TRUE(q.issues & kIssueGaps);
  EXPECT_DOUBLE_EQ(q.gap_ratio, 0.4);
  EXPECT_DOUBLE_EQ(q.longest_gap_s, 0.4);
}

TEST(QualityTest, DcOffsetFlaggedWhenMeanDominates) {
  Signal s = tone_1s();
  for (std::size_t i = 0; i < s.size(); ++i) s[i] += 0.5;
  const auto q = assess_channel(s, QualityConfig{});
  EXPECT_TRUE(q.issues & kIssueDcOffset);
  EXPECT_NEAR(q.dc_offset, 0.5, 1e-3);
}

TEST(QualityTest, StuckSensorFlaggedOnLongConstantRun) {
  Signal s = tone_1s();
  // Hold 40% of the capture at one nonzero reading.
  for (std::size_t i = 100; i < 500; ++i) s[i] = 0.123;
  const auto q = assess_channel(s, QualityConfig{});
  EXPECT_TRUE(q.issues & kIssueStuck);
  EXPECT_GE(q.stuck_ratio, 0.4);
  // A long run of exact zeros is a gap, not a stuck sensor.
  Signal gappy = tone_1s();
  for (std::size_t i = 0; i < 400; ++i) gappy[i] = 0.0;
  const auto gap = assess_channel(gappy, QualityConfig{});
  EXPECT_TRUE(gap.issues & kIssueGaps);
  EXPECT_FALSE(gap.issues & kIssueStuck);
}

TEST(QualityTest, DeadAndShortChannelsFlagged) {
  const auto dead =
      assess_channel(Signal::zeros(1000, 1000.0), QualityConfig{});
  EXPECT_TRUE(dead.issues & kIssueLowSignal);
  const auto brief = assess_channel(dsp::tone(50.0, 0.02, 1000.0, 0.2),
                                    QualityConfig{});
  EXPECT_TRUE(brief.issues & kIssueTooShort);
  EXPECT_FALSE(brief.issues & kIssueLowSignal);
}

TEST(QualityTest, FatalMasksPerGate) {
  EXPECT_EQ(fatal_issue_mask(QualityConfig::Gate::kOff), 0u);
  EXPECT_EQ(fatal_issue_mask(QualityConfig::Gate::kPermissive),
            kIssueNonFinite | kIssueTooShort | kIssueLowSignal);
  EXPECT_EQ(fatal_issue_mask(QualityConfig::Gate::kStrict),
            ~std::uint32_t{0});
}

TEST(QualityTest, GateModesControlScoreability) {
  QualityReport report;
  report.issues = kIssueClipping | kIssueDcOffset;
  QualityConfig cfg;

  cfg.gate = QualityConfig::Gate::kOff;
  apply_gate(cfg, report);
  EXPECT_TRUE(report.scoreable);
  EXPECT_STREQ(report.reason, "ok");

  cfg.gate = QualityConfig::Gate::kPermissive;
  apply_gate(cfg, report);
  EXPECT_TRUE(report.scoreable);  // cosmetic issues stay non-fatal

  cfg.gate = QualityConfig::Gate::kStrict;
  apply_gate(cfg, report);
  EXPECT_FALSE(report.scoreable);
  EXPECT_EQ(report.fatal, report.issues);
  EXPECT_STREQ(report.reason, "clipping");  // priority order
}

TEST(QualityTest, ReasonFollowsPriorityOrder) {
  QualityReport report;
  report.issues = kIssueNonFinite | kIssueClipping | kIssueGaps;
  QualityConfig cfg;
  cfg.gate = QualityConfig::Gate::kStrict;
  apply_gate(cfg, report);
  EXPECT_STREQ(report.reason, "non_finite_samples");
}

TEST(QualityTest, AssessPairUnionsChannelIssues) {
  Signal bad_va = tone_1s();
  bad_va[0] = std::numeric_limits<double>::quiet_NaN();
  const Signal dead_wear = Signal::zeros(1000, 200.0);
  QualityReport report;
  assess_pair(bad_va, dead_wear, QualityConfig{}, report);
  EXPECT_TRUE(report.va.issues & kIssueNonFinite);
  EXPECT_TRUE(report.wearable.issues & kIssueLowSignal);
  EXPECT_EQ(report.issues, report.va.issues | report.wearable.issues);
  EXPECT_FALSE(report.scoreable);
  // non_finite outranks low_signal in the reason table.
  EXPECT_STREQ(report.reason, "non_finite_samples");
}

TEST(QualityTest, AssessmentDoesNotMutateInput) {
  const Signal original = tone_1s();
  Signal copy = original;
  (void)assess_channel(copy, QualityConfig{});
  ASSERT_EQ(copy.size(), original.size());
  for (std::size_t i = 0; i < copy.size(); ++i) {
    EXPECT_EQ(copy[i], original[i]) << "sample " << i;
  }
}

TEST(QualityTest, AssessmentIsDeterministic) {
  const Signal s = tone_1s();
  const auto a = assess_channel(s, QualityConfig{});
  const auto b = assess_channel(s, QualityConfig{});
  EXPECT_EQ(a.issues, b.issues);
  EXPECT_EQ(a.rms, b.rms);
  EXPECT_EQ(a.clip_ratio, b.clip_ratio);
  EXPECT_EQ(a.gap_ratio, b.gap_ratio);
}

TEST(QualityTest, ReportClearAndSummary) {
  QualityReport report;
  assess_pair(Signal({}, 1000.0), Signal({}, 200.0), QualityConfig{}, report);
  EXPECT_FALSE(report.scoreable);
  EXPECT_NE(report.summary().find("too_short"), std::string::npos);

  report.clear();
  EXPECT_TRUE(report.scoreable);
  EXPECT_EQ(report.issues, 0u);
  EXPECT_EQ(report.fatal, 0u);
  EXPECT_STREQ(report.reason, "ok");
  EXPECT_NE(report.summary().find("scoreable"), std::string::npos);
}

// Every ChannelQuality field pinned for one signal carrying each defect the
// census walks over: a long zero gap, a stuck (constant, nonzero) run, a NaN
// and an inf. Recorded at the scalar SIMD level as exact hex-float
// literals; a reordered accumulation or a slip in the gap or stuck-run
// bookkeeping fails here by field name.
TEST(QualityTest, DefectCensusIsPinned) {
  const dsp::simd::Level prev = dsp::simd::active_level();
  ASSERT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
  Rng rng(21);
  std::vector<double> samples(24000);
  for (double& s : samples) s = rng.gaussian() * 0.1;
  for (std::size_t i = 5000; i < 6200; ++i) samples[i] = 0.0;
  for (std::size_t i = 9000; i < 9800; ++i) samples[i] = 0.25;
  samples[15000] = std::numeric_limits<double>::quiet_NaN();
  samples[15001] = std::numeric_limits<double>::infinity();
  const ChannelQuality q =
      assess_channel(Signal(samples, 16000.0), QualityConfig{});
  dsp::simd::set_level(prev);

  const struct {
    const char* field;
    double value;
    double pinned;
  } kPinned[] = {
      {"duration_s", q.duration_s, 0x1.8p+0},
      {"rms", q.rms, 0x1.b0eef70596124p-4},
      {"peak", q.peak, 0x1.9aeb664652ed7p-2},
      {"dc_offset", q.dc_offset, 0x1.0211340591d5p-7},
      {"clip_ratio", q.clip_ratio, 0x1.5d867c3ece2a5p-15},
      {"gap_ratio", q.gap_ratio, 0x1.999999999999ap-5},
      {"longest_gap_s", q.longest_gap_s, 0x1.3333333333333p-4},
      {"stuck_ratio", q.stuck_ratio, 0x1.1111111111111p-5},
  };
  for (const auto& p : kPinned) {
    EXPECT_EQ(p.value, p.pinned)
        << p.field << " is " << std::hexfloat << p.value;
  }
  EXPECT_EQ(q.samples, 24000u);
  EXPECT_EQ(q.non_finite, 2u);
  EXPECT_EQ(q.issues, kIssueNonFinite)
      << "issues are " << quality_issue_names(q.issues);
}

}  // namespace
}  // namespace vibguard::core
