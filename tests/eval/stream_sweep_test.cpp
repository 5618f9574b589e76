#include "eval/stream_sweep.hpp"

#include <gtest/gtest.h>

#include <ios>

#include "common/error.hpp"
#include "dsp/simd.hpp"

namespace vibguard::eval {
namespace {

StreamSweepConfig small_sweep() {
  StreamSweepConfig cfg;
  cfg.calib_trials = 6;
  cfg.eval_trials = 6;
  return cfg;
}

// A small sweep's table pinned at the scalar SIMD level as exact hex-float
// literals: the batch EER and, per exit confidence, the EER, early-exit rate
// and the median and mean consumed fractions. Recorded while the anytime
// checkpoints still ran their own hand-copied capture, feature and
// correlate calls; a change to a checkpoint, the stopping rule or the
// sweep's decision mapping fails here by confidence row.
TEST(StreamSweepTest, SmallSweepReproducesRecordedRows) {
  const struct {
    double exit_confidence;
    double eer;
    double early_exit_rate;
    double median_fraction;
    double mean_fraction;
  } kRows[] = {
      {0.80, 0x1.5555555555555p-3, 0x1.d555555555555p-1, 0x1.67736fac8281p-2,
       0x1.a06d378d02d65p-2},
      {0.90, 0x1.5555555555554p-3, 0x1.aaaaaaaaaaaabp-1, 0x1.075930a486382p-1,
       0x1.21cd6bb383ebfp-1},
      {0.95, 0x0p+0, 0x1.aaaaaaaaaaaabp-1, 0x1.11ad5825bae62p-1,
       0x1.316f3c3c3de6dp-1},
      {0.97, 0x0p+0, 0x1.8p-1, 0x1.1904b9f45426ep-1, 0x1.56050ee8dc9fcp-1},
      {0.99, 0x0p+0, 0x1.8p-1, 0x1.b484c61d33f11p-1, 0x1.9b1d09dd4d25fp-1},
  };
  const dsp::simd::Level prev = dsp::simd::active_level();
  ASSERT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
  const StreamSweepResult result = run_stream_sweep(small_sweep(), 7);
  dsp::simd::set_level(prev);

  EXPECT_EQ(result.batch_eer, 0x0p+0)
      << "batch EER is " << std::hexfloat << result.batch_eer;
  ASSERT_EQ(result.rows.size(), std::size(kRows));
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const StreamSweepRow& row = result.rows[i];
    EXPECT_EQ(row.exit_confidence, kRows[i].exit_confidence);
    EXPECT_EQ(row.eer, kRows[i].eer)
        << "c=" << row.exit_confidence << ": EER is " << std::hexfloat
        << row.eer;
    EXPECT_EQ(row.early_exit_rate, kRows[i].early_exit_rate)
        << "c=" << row.exit_confidence << ": exit rate is " << std::hexfloat
        << row.early_exit_rate;
    EXPECT_EQ(row.median_fraction, kRows[i].median_fraction)
        << "c=" << row.exit_confidence << ": median fraction is "
        << std::hexfloat << row.median_fraction;
    EXPECT_EQ(row.mean_fraction, kRows[i].mean_fraction)
        << "c=" << row.exit_confidence << ": mean fraction is "
        << std::hexfloat << row.mean_fraction;
  }
}

TEST(StreamSweepTest, RejectsBadConfig) {
  const auto expect_rejected = [](const char* what, auto mutate) {
    StreamSweepConfig cfg = small_sweep();
    mutate(cfg);
    EXPECT_THROW(run_stream_sweep(cfg, 7), InvalidArgument) << what;
  };
  expect_rejected("calib_trials < 2",
                  [](StreamSweepConfig& c) { c.calib_trials = 1; });
  expect_rejected("eval_trials < 2",
                  [](StreamSweepConfig& c) { c.eval_trials = 1; });
  expect_rejected("frame_samples == 0",
                  [](StreamSweepConfig& c) { c.frame_samples = 0; });
  expect_rejected("baseline mode", [](StreamSweepConfig& c) {
    c.defense.mode = core::DefenseMode::kVibrationBaseline;
  });
  expect_rejected("num_speakers < 2",
                  [](StreamSweepConfig& c) { c.num_speakers = 1; });
}

}  // namespace
}  // namespace vibguard::eval
