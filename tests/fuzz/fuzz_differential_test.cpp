// Differential fuzz driver: every optimized kernel is cross-checked against
// the deliberately naive implementations in tests/reference on randomized
// sizes, rates and contents. All randomness flows through vibguard::Rng
// seeded from fuzz_base_seed() + trial index (no wall clock anywhere), so
// each trial is reproducible from the seed printed on failure — see
// fuzz_util.hpp for the replay recipe.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <vector>

#include "attacks/attack.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "common/wav.hpp"
#include "core/segmentation.hpp"
#include "core/streaming.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/mel.hpp"
#include "dsp/resample.hpp"
#include "dsp/simd.hpp"
#include "dsp/stft.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "eval/scenario.hpp"
#include "fuzz/fuzz_util.hpp"
#include "reference/reference_dft.hpp"
#include "reference/reference_dsp.hpp"
#include "reference/reference_metrics.hpp"

namespace vibguard {
namespace {

std::vector<double> random_vector(Rng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> out(n);
  for (double& v : out) v = rng.uniform(lo, hi);
  return out;
}

void expect_complex_near(std::span<const dsp::Complex> got,
                         std::span<const dsp::Complex> want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), tol) << "bin " << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), tol) << "bin " << i;
  }
}

// Exact equality through the bits, so a -0.0 cannot pass for a +0.0.
// Reports the first differing value and how many differ, not every one.
void expect_same_bits(std::span<const double> got,
                      std::span<const double> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t differ = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      if (differ++ == 0) first = i;
    }
  }
  EXPECT_EQ(differ, 0u) << what << ": first at " << first << " of "
                        << got.size() << ", " << got[first] << " vs "
                        << want[first];
}

// A complex<double> array is array-of-double compatible.
std::span<const double> as_doubles(std::span<const dsp::Complex> xs) {
  return {reinterpret_cast<const double*>(xs.data()), 2 * xs.size()};
}

TEST(FuzzDifferential, FftPlanTransformMatchesNaiveDft) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    // Mix of power-of-two and Bluestein sizes, including 1.
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 96));
    std::vector<dsp::Complex> x(n);
    for (auto& v : x) {
      v = dsp::Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    const double tol = 1e-9 * static_cast<double>(n) + 1e-10;

    std::vector<dsp::Complex> fwd = x;
    dsp::get_plan(n).transform(fwd, false);
    expect_complex_near(fwd, testing::naive_dft(x, false), tol);

    std::vector<dsp::Complex> inv = x;
    dsp::get_plan(n).transform(inv, true);
    expect_complex_near(inv, testing::naive_dft(x, true), tol);

    // Round trip back to the input.
    dsp::get_plan(n).transform(fwd, true);
    expect_complex_near(fwd, x, tol);
  }
}

TEST(FuzzDifferential, RfftMatchesNaiveDft) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    // Even sizes exercise the packed half-length fast path, odd sizes the
    // complex fallback.
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 128));
    const auto x = random_vector(rng, n, -1.0, 1.0);
    const double tol = 1e-9 * static_cast<double>(n) + 1e-10;

    expect_complex_near(dsp::rfft(x), testing::naive_rfft(x), tol);

    const auto mag_ref = testing::naive_magnitude_spectrum(x);
    const auto mag = dsp::magnitude_spectrum(x);
    ASSERT_EQ(mag.size(), mag_ref.size());
    for (std::size_t k = 0; k < mag.size(); ++k) {
      EXPECT_NEAR(mag[k], mag_ref[k], tol) << "bin " << k;
    }

    std::vector<double> pow(n / 2 + 1, 0.0);
    dsp::get_plan(n).power(x, pow);
    const auto pow_ref = testing::naive_power_spectrum(x);
    for (std::size_t k = 0; k < pow.size(); ++k) {
      EXPECT_NEAR(pow[k], pow_ref[k], tol) << "bin " << k;
    }
  }
}

TEST(FuzzDifferential, PlannedStftPowerMatchesNaive) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  constexpr dsp::WindowType kWindows[] = {
      dsp::WindowType::kRectangular, dsp::WindowType::kHann,
      dsp::WindowType::kHamming, dsp::WindowType::kBlackman};
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto ws = static_cast<std::size_t>(rng.uniform_int(4, 64));
    const auto hop = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(ws)));
    // Includes empty and shorter-than-one-window inputs (padded path).
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const double rate = rng.uniform(50.0, 16000.0);
    const auto window = kWindows[rng.uniform_int(0, 3)];
    const Signal sig(random_vector(rng, len, -1.0, 1.0), rate);

    dsp::Spectrogram out;
    dsp::stft_power_into(sig, ws, hop, out, window);
    const auto ref = testing::naive_stft_power(sig, ws, hop, window);

    ASSERT_EQ(out.frames(), ref.size());
    ASSERT_EQ(out.bins(), ws / 2 + 1);
    EXPECT_NEAR(out.bin_hz(), rate / static_cast<double>(ws), 1e-9);
    EXPECT_NEAR(out.hop_seconds(), static_cast<double>(hop) / rate, 1e-12);
    for (std::size_t f = 0; f < out.frames(); ++f) {
      for (std::size_t b = 0; b < out.bins(); ++b) {
        EXPECT_NEAR(out.at(f, b), ref[f][b], 1e-9)
            << "frame " << f << " bin " << b;
      }
    }
  }
}

TEST(FuzzDifferential, Correlation2dMatchesScalarPearson) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto bins = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto fa = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto fb = static_cast<std::size_t>(rng.uniform_int(1, 40));
    dsp::Spectrogram a(fa, bins, 1.0, 0.01);
    dsp::Spectrogram b(fb, bins, 1.0, 0.01);
    for (double& v : a.values()) v = rng.gaussian(0.5, 1.0);
    for (double& v : b.values()) v = rng.gaussian(-0.25, 2.0);

    const std::size_t n = std::min(fa, fb) * bins;
    const double ref = testing::naive_pearson(
        std::span<const double>(a.values().data(), n),
        std::span<const double>(b.values().data(), n));
    EXPECT_NEAR(dsp::correlation_2d(a, b), ref, 1e-9);
  }
}

TEST(FuzzDifferential, CrossCorrelateMatchesDirectReference) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);

    // Small problem: exercises the library's direct evaluation path.
    {
      const auto la = static_cast<std::size_t>(rng.uniform_int(0, 120));
      const auto lb = static_cast<std::size_t>(rng.uniform_int(0, 120));
      const auto lag = static_cast<std::size_t>(rng.uniform_int(0, 40));
      const auto a = rng.gaussian_vector(la);
      const auto b = rng.gaussian_vector(lb);
      const auto got = dsp::cross_correlate(a, b, lag);
      const auto ref = testing::naive_cross_correlate(a, b, lag);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-9) << "lag index " << i;
      }
    }

    // Large problem: min(len) * (2*max_lag + 1) >= 2^18 forces the
    // FFT-based path (see correlate.cpp's crossover). Independent lengths
    // and lags past the shorter input reach every wrap-around alias the
    // transform's zero padding must keep out of the lag window.
    {
      const auto la = static_cast<std::size_t>(rng.uniform_int(100, 1000));
      const auto lb = static_cast<std::size_t>(rng.uniform_int(100, 1000));
      const std::size_t shorter = std::min(la, lb);
      // Smallest max_lag with shorter * (2*max_lag + 1) >= 2^18.
      const std::size_t min_lag = ((1u << 18) + shorter - 1) / shorter / 2;
      const auto lag = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(min_lag),
          static_cast<std::int64_t>(std::max(min_lag, shorter) + 300)));
      const auto a = rng.gaussian_vector(la);
      const auto b = rng.gaussian_vector(lb);
      const auto got = dsp::cross_correlate(a, b, lag);
      const auto ref = testing::naive_cross_correlate(a, b, lag);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-6) << "lag index " << i;
      }
    }
  }
}

TEST(FuzzDifferential, DecimateAliasMatchesNaiveLinearResampler) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const double in_rate = rng.uniform(100.0, 16000.0);
    const double target = rng.uniform(0.05 * in_rate, in_rate);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 600));
    const Signal sig(rng.gaussian_vector(len), in_rate);

    const Signal got = dsp::decimate_alias(sig, target);
    const Signal ref = testing::naive_linear_resample(sig, target);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_DOUBLE_EQ(got.sample_rate(), target);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-12) << "sample " << i;
    }

    // The _into overload must agree bit-for-bit, including when the output
    // aliases the input (the PR 3 aliasing regression).
    Signal out;
    dsp::decimate_alias_into(sig, target, out);
    ASSERT_EQ(out.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(out[i], got[i]) << "sample " << i;
    }
    Signal self = sig;
    dsp::decimate_alias_into(self, target, self);
    ASSERT_EQ(self.size(), got.size());
    EXPECT_DOUBLE_EQ(self.sample_rate(), target);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(self[i], got[i]) << "sample " << i;
    }
  }
}

TEST(FuzzDifferential, ResampleMatchesNaiveReference) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const double in_rate = rng.uniform(200.0, 16000.0);
    const bool down = rng.bernoulli(0.5);
    const double target = down ? rng.uniform(0.1 * in_rate, 0.95 * in_rate)
                               : rng.uniform(1.05 * in_rate, 4.0 * in_rate);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 500));
    const Signal sig(rng.gaussian_vector(len), in_rate);

    const Signal got = dsp::resample(sig, target);
    const Signal ref = testing::naive_resample(sig, target);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_DOUBLE_EQ(got.sample_rate(), ref.sample_rate());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-9) << "sample " << i;
    }
  }
}

TEST(FuzzDifferential, ComputeRocMatchesBruteForce) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto na = static_cast<std::size_t>(rng.uniform_int(1, 50));
    const auto nl = static_cast<std::size_t>(rng.uniform_int(1, 50));
    // Quantized scores so duplicate values and exact rate ties are common.
    std::vector<double> attacks(na), legits(nl);
    for (double& v : attacks) {
      v = std::round(rng.uniform(0.0, 1.0) * 8.0) / 8.0;
    }
    for (double& v : legits) {
      v = std::round(rng.uniform(0.2, 1.2) * 8.0) / 8.0;
    }

    const auto roc = eval::compute_roc(attacks, legits);
    const auto ref = testing::naive_roc(attacks, legits);

    ASSERT_EQ(roc.points.size(), ref.thresholds.size());
    for (std::size_t i = 0; i < roc.points.size(); ++i) {
      EXPECT_DOUBLE_EQ(roc.points[i].threshold, ref.thresholds[i]);
      EXPECT_DOUBLE_EQ(roc.points[i].fdr, ref.fdr[i]) << "point " << i;
      EXPECT_DOUBLE_EQ(roc.points[i].tdr, ref.tdr[i]) << "point " << i;
    }
    EXPECT_NEAR(roc.auc, ref.auc, 1e-12);
    EXPECT_NEAR(roc.eer, ref.eer, 1e-12);
    EXPECT_NEAR(roc.eer_threshold, ref.eer_threshold, 1e-9);
  }
}

// Re-runs the DSP pipelines at every dispatch level this build + CPU
// provides and holds them to the documented numerical contract versus the
// scalar reference: pipelines built purely from elementwise kernels (FFT
// transforms, planned STFT power, decimate_alias) must agree bit-for-bit;
// pipelines through the reduction kernels (FIR resample, correlation_2d,
// MFCC) to ULP-scaled tolerance. Besides a small transform, every trial
// runs one power of two of 2^9..2^16 points and one Bluestein length of
// 1000..20000, the sizes scoring runs: they cross the tiled bit reversal
// and the stage blocking, which small sizes never reach. Each level builds
// its own Bluestein plan (a local one: get_plan would keep every length).
TEST(FuzzDifferential, DispatchLevelsMatchScalarReference) {
  const auto levels = dsp::simd::available_levels();
  const dsp::simd::Level entry_level = dsp::simd::active_level();
  if (levels.size() < 2) {
    GTEST_SKIP() << "only the scalar dispatch level is available";
  }
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);

    // Shared random inputs for all levels of this trial.
    const auto random_complex = [&rng](std::size_t n) {
      std::vector<dsp::Complex> out(n);
      for (auto& v : out) {
        v = dsp::Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
      }
      return out;
    };
    const auto fft_n = static_cast<std::size_t>(rng.uniform_int(2, 96));
    const std::vector<dsp::Complex> fft_in = random_complex(fft_n);
    const std::size_t pow2_n = std::size_t{1} << rng.uniform_int(9, 16);
    const std::vector<dsp::Complex> pow2_in = random_complex(pow2_n);
    const auto blue_n = static_cast<std::size_t>(rng.uniform_int(1000, 20000));
    const std::vector<dsp::Complex> blue_in = random_complex(blue_n);
    // Forward then inverse through one plan of each size.
    const auto transform_both = [](const dsp::FftPlan& plan,
                                   std::vector<dsp::Complex> x) {
      plan.transform(x, false);
      std::vector<dsp::Complex> out = x;
      plan.transform(x, true);
      out.insert(out.end(), x.begin(), x.end());
      return out;
    };
    const auto ws = static_cast<std::size_t>(rng.uniform_int(4, 64));
    const auto hop = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(ws)));
    const Signal stft_sig(
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(0, 400))),
        rng.uniform(50.0, 16000.0));
    const double deci_rate = rng.uniform(100.0, 16000.0);
    const double deci_target = rng.uniform(0.05 * deci_rate, deci_rate);
    const Signal deci_sig(
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(0, 600))),
        deci_rate);
    const double rs_rate = rng.uniform(400.0, 16000.0);
    const double rs_target = rng.uniform(0.1 * rs_rate, 0.95 * rs_rate);
    const Signal rs_sig(
        rng.gaussian_vector(static_cast<std::size_t>(rng.uniform_int(0, 500))),
        rs_rate);
    const auto corr_bins = static_cast<std::size_t>(rng.uniform_int(1, 24));
    dsp::Spectrogram corr_a(static_cast<std::size_t>(rng.uniform_int(1, 40)),
                            corr_bins, 1.0, 0.01);
    dsp::Spectrogram corr_b(static_cast<std::size_t>(rng.uniform_int(1, 40)),
                            corr_bins, 1.0, 0.01);
    for (double& v : corr_a.values()) v = rng.gaussian(0.5, 1.0);
    for (double& v : corr_b.values()) v = rng.gaussian(-0.25, 2.0);
    const Signal mfcc_sig(
        rng.gaussian_vector(
            static_cast<std::size_t>(rng.uniform_int(400, 1600))),
        16000.0);

    // Scalar pass: the reference every other level is held to.
    ASSERT_TRUE(dsp::simd::set_level(dsp::simd::Level::kScalar));
    std::vector<dsp::Complex> fft_ref = fft_in;
    dsp::get_plan(fft_n).transform(fft_ref, false);
    const auto pow2_ref = transform_both(dsp::get_plan(pow2_n), pow2_in);
    const auto blue_ref = transform_both(dsp::FftPlan(blue_n), blue_in);
    dsp::Spectrogram stft_ref;
    dsp::stft_power_into(stft_sig, ws, hop, stft_ref);
    const Signal deci_ref = dsp::decimate_alias(deci_sig, deci_target);
    const Signal rs_ref = dsp::resample(rs_sig, rs_target);
    const double corr_ref = dsp::correlation_2d(corr_a, corr_b);
    const auto mfcc_ref = dsp::compute_mfcc(mfcc_sig);

    for (dsp::simd::Level level : levels) {
      if (level == dsp::simd::Level::kScalar) continue;
      SCOPED_TRACE(dsp::simd::level_name(level));
      ASSERT_TRUE(dsp::simd::set_level(level));

      // Elementwise-kernel pipelines: bit-identical.
      std::vector<dsp::Complex> fft_got = fft_in;
      dsp::get_plan(fft_n).transform(fft_got, false);
      expect_same_bits(as_doubles(fft_got), as_doubles(fft_ref), "small fft");
      expect_same_bits(
          as_doubles(transform_both(dsp::get_plan(pow2_n), pow2_in)),
          as_doubles(pow2_ref), "power-of-two fft");
      expect_same_bits(
          as_doubles(transform_both(dsp::FftPlan(blue_n), blue_in)),
          as_doubles(blue_ref), "Bluestein fft");
      dsp::Spectrogram stft_got;
      dsp::stft_power_into(stft_sig, ws, hop, stft_got);
      ASSERT_EQ(stft_got.frames(), stft_ref.frames());
      expect_same_bits(stft_got.values(), stft_ref.values(), "stft power");
      const Signal deci_got = dsp::decimate_alias(deci_sig, deci_target);
      expect_same_bits(deci_got.samples(), deci_ref.samples(),
                       "decimate_alias");

      // Reduction-kernel pipelines: ULP-scaled tolerance.
      const Signal rs_got = dsp::resample(rs_sig, rs_target);
      ASSERT_EQ(rs_got.size(), rs_ref.size());
      for (std::size_t i = 0; i < rs_got.size(); ++i) {
        EXPECT_NEAR(rs_got[i], rs_ref[i],
                    1e-12 * (1.0 + std::abs(rs_ref[i])))
            << "sample " << i;
      }
      EXPECT_NEAR(dsp::correlation_2d(corr_a, corr_b), corr_ref, 1e-12);
      const auto mfcc_got = dsp::compute_mfcc(mfcc_sig);
      ASSERT_EQ(mfcc_got.size(), mfcc_ref.size());
      for (std::size_t f = 0; f < mfcc_got.size(); ++f) {
        ASSERT_EQ(mfcc_got[f].size(), mfcc_ref[f].size());
        for (std::size_t k = 0; k < mfcc_got[f].size(); ++k) {
          // log() of near-zero mel energies amplifies reassociation noise,
          // so the bound is looser than the raw kernel tolerance.
          EXPECT_NEAR(mfcc_got[f][k], mfcc_ref[f][k],
                      1e-6 * (1.0 + std::abs(mfcc_ref[f][k])))
              << "frame " << f << " coeff " << k;
        }
      }
    }
    dsp::simd::set_level(entry_level);
  }
  dsp::simd::set_level(entry_level);
}

TEST(FuzzDifferential, WavRoundTripWithinQuantization) {
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  const std::string path =
      (std::filesystem::temp_directory_path() / "vibguard_fuzz_roundtrip.wav")
          .string();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const double rate = static_cast<double>(rng.uniform_int(100, 48000));
    // Beyond [-1, 1] on purpose: clipping is part of the contract.
    const Signal sig(random_vector(rng, len, -1.3, 1.3), rate);

    write_wav(path, sig);
    const Signal loaded = read_wav(path);
    ASSERT_EQ(loaded.size(), sig.size());
    EXPECT_DOUBLE_EQ(loaded.sample_rate(), rate);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      const double clipped = std::clamp(sig[i], -1.0, 1.0);
      const double quantized =
          static_cast<double>(std::lround(clipped * 32767.0)) / 32767.0;
      // Exactly the documented quantization, i.e. within half an LSB of the
      // clipped input.
      EXPECT_DOUBLE_EQ(loaded[i], quantized) << "sample " << i;
      EXPECT_LE(std::abs(loaded[i] - clipped), 0.5 / 32767.0 + 1e-12)
          << "sample " << i;
    }

    // A second round trip of already-quantized data must be exact.
    write_wav(path, loaded);
    const Signal again = read_wav(path);
    ASSERT_EQ(again.size(), loaded.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      EXPECT_DOUBLE_EQ(again[i], loaded[i]) << "sample " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(FuzzDifferential, WavDecodeSurvivesMutatedAndTruncatedStreams) {
  // Robustness fuzz for the hardened decoder: starting from a valid stream,
  // random byte mutations and truncations must always end in either a
  // decoded Signal or a vibguard::Error — never UB, a crash, or a foreign
  // exception type. The seed reproduces any failure exactly.
  const std::size_t iters = testing::fuzz_iterations();
  const std::uint64_t base = testing::fuzz_base_seed();
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const double rate = static_cast<double>(rng.uniform_int(100, 48000));
    std::vector<std::uint8_t> bytes =
        encode_wav(Signal(random_vector(rng, len, -1.0, 1.0), rate));

    // Truncate to a random prefix half the time, then flip random bytes —
    // header fields, chunk sizes and payload are all fair game.
    if (rng.bernoulli(0.5)) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()))));
    }
    const auto flips = static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }

    try {
      const Signal decoded = decode_wav(bytes, "fuzz");
      // Whatever survived must be internally consistent.
      EXPECT_GT(decoded.sample_rate(), 0.0);
      EXPECT_LE(decoded.size(), bytes.size());  // 2 bytes per sample min
    } catch (const Error&) {
      // Malformed input rejected cleanly: the documented contract.
    }
  }
}

TEST(FuzzDifferential, StreamingMatchesBatchScore) {
  // The streaming pipeline's batch-compatibility invariant, fuzzed: a
  // run-to-completion kExactBatch stream must reproduce the batch score
  // BIT-IDENTICALLY for any push schedule — including single-sample pushes,
  // empty pushes, ragged tails and channels advancing out of lockstep.
  // Runs at whatever VIBGUARD_SIMD level the environment selects, so the
  // CI matrix checks the invariant per dispatch level.
  const std::size_t iters = testing::fuzz_iterations(10);
  const std::uint64_t base = testing::fuzz_base_seed();
  core::DefenseConfig full_cfg;
  const core::DefenseSystem system(full_cfg);
  core::StreamingPipeline pipeline(system);
  core::Workspace workspace;
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base + it;
    SCOPED_TRACE(testing::seed_note(seed));
    Rng rng(seed);

    eval::ScenarioSimulator sim(eval::ScenarioConfig{}, seed);
    Rng speaker_rng(seed + 1);
    const auto user =
        speech::sample_speaker(rng.bernoulli(0.5) ? speech::Sex::kFemale
                                                  : speech::Sex::kMale,
                               speaker_rng);
    const auto& lexicon = speech::command_lexicon();
    const auto& cmd = lexicon[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(lexicon.size()) - 1))];
    eval::TrialRecordings trial;
    if (rng.bernoulli(0.5)) {
      trial = sim.legitimate_trial(cmd, user);
    } else {
      const auto adv = speech::sample_speaker(speech::Sex::kMale, speaker_rng);
      trial = sim.attack_trial(attacks::AttackType::kReplay, cmd, user, adv);
    }
    core::OracleSegmenter seg(trial.alignment,
                              eval::reference_sensitive_set());

    Rng batch_rng(seed ^ 0xb47c5ULL);
    const core::ScoreOutcome batch = system.try_score(
        trial.va, trial.wearable, &seg, batch_rng, workspace);

    // Random interleaved schedule. Frame sizes are drawn from a mixed
    // distribution so tiny (1-3 sample), medium and block-crossing pushes
    // all occur, with occasional empty frames on one channel.
    pipeline.begin(trial.va.sample_rate(), &seg, Rng(seed ^ 0xb47c5ULL));
    std::size_t va_off = 0;
    std::size_t wear_off = 0;
    while (va_off < trial.va.size() || wear_off < trial.wearable.size()) {
      const auto draw = [&rng]() -> std::size_t {
        const double u = rng.uniform();
        if (u < 0.25) return static_cast<std::size_t>(rng.uniform_int(0, 3));
        if (u < 0.65) {
          return static_cast<std::size_t>(rng.uniform_int(16, 500));
        }
        return static_cast<std::size_t>(rng.uniform_int(1000, 5000));
      };
      const std::size_t va_n =
          std::min(draw(), trial.va.size() - va_off);
      const std::size_t wear_n =
          std::min(draw(), trial.wearable.size() - wear_off);
      pipeline.push(trial.va.samples().subspan(va_off, va_n),
                    trial.wearable.samples().subspan(wear_off, wear_n));
      va_off += va_n;
      wear_off += wear_n;
    }
    const core::StreamOutcome streamed = pipeline.finalize();

    ASSERT_EQ(streamed.outcome.status, batch.status);
    if (batch.ok()) {
      EXPECT_EQ(streamed.outcome.score, batch.score);  // bitwise
    }
  }
}

}  // namespace
}  // namespace vibguard
