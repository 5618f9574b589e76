// Dispatch-layer tests: level selection/override plumbing, plus every
// kernel cross-checked against the scalar reference at every level this
// build + CPU makes available. Elementwise kernels must match scalar
// bit-for-bit (that is the contract that makes VIBGUARD_SIMD=scalar
// reproduce pre-dispatch scores exactly); reduction kernels reassociate
// and are held to an ULP-scaled tolerance instead.
#include "dsp/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace vibguard::dsp::simd {
namespace {

// Restores the dispatch level active at construction time.
class LevelGuard {
 public:
  LevelGuard() : prev_(active_level()) {}
  ~LevelGuard() { set_level(prev_); }

 private:
  Level prev_;
};

std::vector<double> random_vector(Rng& rng, std::size_t n) {
  return rng.gaussian_vector(n);
}

std::vector<Complex> random_complex(Rng& rng, std::size_t n) {
  const auto re = rng.gaussian_vector(n);
  const auto im = rng.gaussian_vector(n);
  std::vector<Complex> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = Complex(re[i], im[i]);
  return out;
}

const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 100};

TEST(SimdLevelTest, ParseLevelRecognizedNames) {
  Level level = Level::kAvx2;
  EXPECT_TRUE(parse_level("scalar", level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(parse_level("SCALAR", level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(parse_level("avx2", level));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_TRUE(parse_level("neon", level));
  EXPECT_EQ(level, Level::kNeon);
  EXPECT_TRUE(parse_level("auto", level));
  EXPECT_EQ(level, detect_level());
}

TEST(SimdLevelTest, ParseLevelRejectsGarbage) {
  Level level = Level::kScalar;
  EXPECT_FALSE(parse_level("sse9", level));
  EXPECT_FALSE(parse_level("", level));
  EXPECT_FALSE(parse_level(nullptr, level));
}

TEST(SimdLevelTest, AvailableLevelsAlwaysIncludeScalar) {
  const auto levels = available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.back(), Level::kScalar);
  // Best-first ordering: the head is what auto-detection picks.
  EXPECT_EQ(levels.front(), detect_level());
}

TEST(SimdLevelTest, SetLevelRoundTrips) {
  LevelGuard guard;
  for (Level level : available_levels()) {
    EXPECT_TRUE(set_level(level));
    EXPECT_EQ(active_level(), level);
    EXPECT_EQ(ops().level, level);
  }
}

TEST(SimdLevelTest, ScalarTableIsScalar) {
  EXPECT_EQ(scalar::kOps.level, Level::kScalar);
}

TEST(SimdKernelTest, MultiplyBitIdenticalAcrossLevels) {
  Rng rng(101);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    std::vector<double> ref(n, 0.0);
    scalar::multiply(a.data(), b.data(), ref.data(), n);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<double> got(n, -1.0);
      ops().multiply(a.data(), b.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], ref[i])
            << level_name(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, ButterflyStageBitIdenticalAcrossLevels) {
  Rng rng(102);
  LevelGuard guard;
  for (std::size_t half : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 33u}) {
    for (bool inverse : {false, true}) {
      const auto lo0 = random_complex(rng, half);
      const auto hi0 = random_complex(rng, half);
      const auto tw = random_complex(rng, half);
      auto lo_ref = lo0;
      auto hi_ref = hi0;
      scalar::butterfly_stage(lo_ref.data(), hi_ref.data(), tw.data(), half,
                              inverse);
      for (Level level : available_levels()) {
        ASSERT_TRUE(set_level(level));
        auto lo = lo0;
        auto hi = hi0;
        ops().butterfly_stage(lo.data(), hi.data(), tw.data(), half, inverse);
        for (std::size_t j = 0; j < half; ++j) {
          EXPECT_EQ(lo[j].real(), lo_ref[j].real())
              << level_name(level) << " half=" << half << " j=" << j;
          EXPECT_EQ(lo[j].imag(), lo_ref[j].imag());
          EXPECT_EQ(hi[j].real(), hi_ref[j].real());
          EXPECT_EQ(hi[j].imag(), hi_ref[j].imag());
        }
      }
    }
  }
}

TEST(SimdKernelTest, FftStage24BitIdenticalAcrossLevels) {
  Rng rng(107);
  LevelGuard guard;
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
    for (bool inverse : {false, true}) {
      const auto d0 = random_complex(rng, n);
      auto ref = d0;
      scalar::fft_stage2_4(ref.data(), n, inverse);
      for (Level level : available_levels()) {
        ASSERT_TRUE(set_level(level));
        auto got = d0;
        ops().fft_stage2_4(got.data(), n, inverse);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[i].real(), ref[i].real())
              << level_name(level) << " n=" << n << " inverse=" << inverse
              << " i=" << i;
          EXPECT_EQ(got[i].imag(), ref[i].imag());
        }
      }
    }
  }
}

TEST(SimdKernelTest, FftStagesBitIdenticalAcrossLevels) {
  Rng rng(108);
  LevelGuard guard;
  // The kernel treats the stage-major twiddle table generically, so random
  // complex values in place of unit roots still exercise it fully. The table
  // holds n - 4 entries (half = 4, 8, ..., n/2). A first stage above 8 is
  // how a transform runs its stages past a cache block, and it starts the
  // radix-2^2 pairing at that stage (an odd count of stages leaves the AVX2
  // kernel one unpaired stage); a first stage above n runs none.
  struct Case {
    std::size_t n;
    std::size_t first_len;
  };
  const Case cases[] = {{8, 8},       {16, 8},      {64, 8},
                        {256, 8},     {1024, 8},    {16, 16},
                        {256, 32},    {1024, 64},   {2048, 2048},
                        {4096, 2048}, {8192, 2048}, {512, 1024}};
  for (const Case& c : cases) {
    for (bool inverse : {false, true}) {
      const auto d0 = random_complex(rng, c.n);
      const auto tw = random_complex(rng, c.n - 4);
      auto ref = d0;
      scalar::fft_stages(ref.data(), c.n, c.first_len, tw.data(), inverse);
      for (Level level : available_levels()) {
        ASSERT_TRUE(set_level(level));
        auto got = d0;
        ops().fft_stages(got.data(), c.n, c.first_len, tw.data(), inverse);
        // Bits, not values: a -0.0 must not pass for a +0.0.
        const auto bits = [](double x) {
          return std::bit_cast<std::uint64_t>(x);
        };
        for (std::size_t i = 0; i < c.n; ++i) {
          EXPECT_EQ(bits(got[i].real()), bits(ref[i].real()))
              << level_name(level) << " n=" << c.n
              << " first_len=" << c.first_len << " inverse=" << inverse
              << " i=" << i;
          EXPECT_EQ(bits(got[i].imag()), bits(ref[i].imag()));
        }
      }
    }
  }
}

TEST(SimdKernelTest, ComplexMultiplyBitIdenticalAcrossLevels) {
  Rng rng(103);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const auto a = random_complex(rng, n);
    const auto b = random_complex(rng, n);
    std::vector<Complex> ref(n);
    scalar::complex_multiply_to(ref.data(), a.data(), b.data(), n);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<Complex> got(n);
      ops().complex_multiply_to(got.data(), a.data(), b.data(), n);
      // Also the in-place (out aliases a) form used by the Bluestein path.
      auto aliased = a;
      ops().complex_multiply_to(aliased.data(), aliased.data(), b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i].real(), ref[i].real())
            << level_name(level) << " n=" << n << " i=" << i;
        EXPECT_EQ(got[i].imag(), ref[i].imag());
        EXPECT_EQ(aliased[i].real(), ref[i].real());
        EXPECT_EQ(aliased[i].imag(), ref[i].imag());
      }
    }
  }
}

TEST(SimdKernelTest, RfftSplitPowerBitIdenticalAcrossLevels) {
  Rng rng(104);
  LevelGuard guard;
  for (std::size_t h : {2u, 3u, 4u, 8u, 16u, 129u, 256u}) {
    const auto z = random_complex(rng, h);
    const auto rtw = random_complex(rng, h + 1);
    const double norm2 = 1.0 / static_cast<double>(4 * h * h);
    std::vector<double> ref(h + 1, 0.0);
    scalar::rfft_split_power(z.data(), rtw.data(), h, norm2, ref.data());
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<double> got(h + 1, 0.0);
      ops().rfft_split_power(z.data(), rtw.data(), h, norm2, got.data());
      // The kernel owns bins 1..h-1.
      for (std::size_t k = 1; k < h; ++k) {
        EXPECT_EQ(got[k], ref[k])
            << level_name(level) << " h=" << h << " k=" << k;
      }
    }
  }
}

TEST(SimdKernelTest, LinearInterpBitIdenticalAcrossLevels) {
  Rng rng(105);
  LevelGuard guard;
  const auto in = random_vector(rng, 1000);
  struct Case {
    double ratio;
    std::size_t n;
  };
  // Down- and up-sampling ratios; 999.0/48.0 drives the final outputs onto
  // the in[in_size - 1] clamp; small n exercises the pure-tail path where a
  // naive offset-zero fallback would recompute positions from zero.
  const Case cases[] = {{0.37, 2000}, {2.5, 399},   {1.0, 1000},
                       {999.0 / 48.0, 49}, {0.123, 5}, {3.7, 3}};
  for (const Case& c : cases) {
    std::vector<double> ref(c.n, 0.0);
    scalar::linear_interp(in.data(), in.size(), c.ratio, ref.data(), c.n);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      std::vector<double> got(c.n, -1.0);
      ops().linear_interp(in.data(), in.size(), c.ratio, got.data(), c.n);
      for (std::size_t i = 0; i < c.n; ++i) {
        EXPECT_EQ(got[i], ref[i])
            << level_name(level) << " ratio=" << c.ratio << " i=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, DotMatchesScalarWithinTolerance) {
  Rng rng(106);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    const double ref = scalar::dot(a.data(), b.data(), n);
    double mag = 0.0;
    for (std::size_t i = 0; i < n; ++i) mag += std::abs(a[i] * b[i]);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      const double got = ops().dot(a.data(), b.data(), n);
      EXPECT_NEAR(got, ref, 1e-12 * (1.0 + mag))
          << level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, DotReverseMatchesScalarWithinTolerance) {
  Rng rng(107);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    const auto taps = random_vector(rng, n);
    const auto x = random_vector(rng, n);
    // x points at the newest sample: the kernel reads x[0], x[-1], ...
    const double* newest = x.data() + n - 1;
    const double ref = scalar::dot_reverse(taps.data(), newest, n);
    double mag = 0.0;
    for (std::size_t t = 0; t < n; ++t) mag += std::abs(taps[t] * newest[-static_cast<std::ptrdiff_t>(t)]);
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      const double got = ops().dot_reverse(taps.data(), newest, n);
      EXPECT_NEAR(got, ref, 1e-12 * (1.0 + mag))
          << level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, PearsonMomentsMatchScalarWithinTolerance) {
  Rng rng(108);
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    const PearsonMoments ref = scalar::pearson_moments(a.data(), b.data(), n);
    const double tol = 1e-12 * (1.0 + static_cast<double>(n));
    for (Level level : available_levels()) {
      ASSERT_TRUE(set_level(level));
      const PearsonMoments got = ops().pearson_moments(a.data(), b.data(), n);
      EXPECT_NEAR(got.sa, ref.sa, tol) << level_name(level) << " n=" << n;
      EXPECT_NEAR(got.sb, ref.sb, tol);
      EXPECT_NEAR(got.saa, ref.saa, tol * 4.0);
      EXPECT_NEAR(got.sbb, ref.sbb, tol * 4.0);
      EXPECT_NEAR(got.sab, ref.sab, tol * 4.0);
    }
  }
}

}  // namespace
}  // namespace vibguard::dsp::simd
