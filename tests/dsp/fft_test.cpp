#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <numbers>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {
namespace {

// Naive O(n^2) DFT reference.
std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * t) /
                           static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-8 * n) << "bin " << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-8 * n) << "bin " << k;
  }
}

TEST_P(FftSizeTest, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n * 7 + 1);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  const auto spec = fft(x);
  const auto back = fft(spec, /*inverse=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9 * n);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9 * n);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n * 13 + 5);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.gaussian(), 0.0);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  const auto spec = fft(x);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * n);
}

// Covers powers of two (1..256), odd composites (45, 243, 255), primes
// (3, 5, 7, 17, 31) and even non-powers-of-two (12, 100), so both rfft
// paths (conjugate-symmetric split and odd-length fallback) and both
// complex paths (radix-2 and Bluestein) are exercised.
INSTANTIATE_TEST_SUITE_P(PowersAndOddSizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17,
                                           31, 32, 45, 64, 100, 128, 243,
                                           255, 256));

TEST_P(FftSizeTest, RfftMatchesComplexFftReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 3 + 2);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  const auto full = fft_real(x);  // complex transform of the real input
  const auto half = rfft(x);
  ASSERT_EQ(half.size(), n / 2 + 1);
  const double tol = 1e-9 * static_cast<double>(n) + 1e-12;
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), tol) << "bin " << k;
    EXPECT_NEAR(half[k].imag(), full[k].imag(), tol) << "bin " << k;
  }
}

TEST_P(FftSizeTest, PlannedAndFreeFunctionPathsAgree) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 3);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());

  // A freshly constructed plan and the cached free-function path must
  // produce identical results bit for bit.
  const FftPlan plan(n);
  std::vector<Complex> planned(x);
  plan.transform(planned, false);
  const auto free_fn = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_DOUBLE_EQ(planned[k].real(), free_fn[k].real()) << "bin " << k;
    EXPECT_DOUBLE_EQ(planned[k].imag(), free_fn[k].imag()) << "bin " << k;
  }

  // Inverse round trip through the same plan recovers the input.
  plan.transform(planned, true);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(planned[k].real(), x[k].real(),
                1e-9 * static_cast<double>(n));
    EXPECT_NEAR(planned[k].imag(), x[k].imag(),
                1e-9 * static_cast<double>(n));
  }
}

TEST_P(FftSizeTest, InPlaceMagnitudeMatchesAllocatingOverload) {
  const std::size_t n = GetParam();
  Rng rng(n * 23 + 7);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  const auto allocated = magnitude_spectrum(x);
  std::vector<double> in_place(n / 2 + 1, -1.0);
  magnitude_spectrum(x, in_place);
  ASSERT_EQ(allocated.size(), in_place.size());
  for (std::size_t k = 0; k < allocated.size(); ++k) {
    EXPECT_DOUBLE_EQ(allocated[k], in_place[k]) << "bin " << k;
  }
}

// FNV-1a over the bytes of a stream of doubles: one 64-bit value pins every
// bit of a spectrum.
class BitHash {
 public:
  void mix(double x) {
    const auto word = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void mix(std::span<const Complex> xs) {
    for (const Complex& v : xs) mix(v.real()), mix(v.imag());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Restores the dispatch level active at construction time.
class LevelGuard {
 public:
  LevelGuard() : prev_(simd::active_level()) {}
  ~LevelGuard() { simd::set_level(prev_); }

 private:
  simd::Level prev_;
};

// Radix-2 spectra pinned bit for bit: the forward and inverse transforms of
// one fixed-seed complex input at every power of two from 2 to 2^17. FFT
// outputs do not depend on the dispatch level (DESIGN.md §5e), so one hash
// holds at every level. Reordering how a transform moves its data must not
// move a bit.
TEST(FftTest, Pow2BitsArePinned) {
  constexpr std::size_t kMaxLog2 = 17;
  Rng rng(20261017);
  std::vector<Complex> input(std::size_t{1} << kMaxLog2);
  for (auto& v : input) v = Complex(rng.gaussian(), rng.gaussian());
  LevelGuard guard;
  for (const simd::Level level : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(level));
    BitHash h;
    for (std::size_t log2 = 1; log2 <= kMaxLog2; ++log2) {
      std::vector<Complex> x(input.begin(),
                             input.begin() + (std::ptrdiff_t{1} << log2));
      const FftPlan& plan = get_plan(x.size());
      plan.transform(x, false);
      h.mix(x);
      plan.transform(x, true);
      h.mix(x);
    }
    EXPECT_EQ(h.value(), 0x99705df9d115145dull)
        << simd::level_name(level) << ": spectrum hash is 0x" << std::hex
        << h.value();
  }
}

// Bluestein spectra pinned bit for bit at every dispatch level: a forward
// and inverse complex transform of a length that is not a power of two,
// and the power spectrum of an even command-like length (whose half plan
// is itself Bluestein). Sharing tables or buffers between plans must not
// move a bit.
TEST(FftTest, BluesteinSpectrumBitsArePinned) {
  LevelGuard guard;
  for (const simd::Level level : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(level));
    BitHash h;
    Rng rng(20261016);
    std::vector<Complex> x(1000);
    for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    const FftPlan complex_plan(x.size());
    complex_plan.transform(x, false);
    h.mix(x);
    complex_plan.transform(x, true);
    h.mix(x);

    std::vector<double> real(18998);
    for (double& v : real) v = rng.gaussian();
    std::vector<double> power(real.size() / 2 + 1);
    get_plan(real.size()).power(real, power);
    for (const double v : power) h.mix(v);
    EXPECT_EQ(h.value(), 0x638d130cb054693cull)
        << simd::level_name(level) << ": spectrum hash is 0x" << std::hex
        << h.value();
  }
}

TEST(FftTest, PlansAreSharedAcrossThreads) {
  for (const std::size_t n : {std::size_t{999}, std::size_t{1000},
                              std::size_t{1024}}) {
    const FftPlan* here = &get_plan(n);
    const FftPlan* there = nullptr;
    std::thread([&] { there = &get_plan(n); }).join();
    EXPECT_EQ(here, there) << n;
    EXPECT_EQ(&get_plan(n), here) << n;
  }
}

TEST(FftTest, SharedPlanIsBitIdenticalUnderConcurrency) {
  // Odd (Bluestein), even with a Bluestein half plan, and powers of two
  // below and above the tiled bit reversal's threshold (8192 also runs
  // blocked stages, and its 4096-point half plan is tiled too). Each plan
  // is fresh, so its lazy Bluestein tables — the even size's top-level ones
  // included — are first built by the racing transform()s.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t n : {std::size_t{999}, std::size_t{1000},
                              std::size_t{1024}, std::size_t{8192}}) {
    SCOPED_TRACE(n);
    Rng rng(n);
    std::vector<double> real(n);
    for (double& v : real) v = rng.gaussian();
    std::vector<Complex> cplx(n);
    for (Complex& v : cplx) v = Complex(rng.gaussian(), rng.gaussian());

    struct Result {
      std::vector<Complex> forward, inverse, spectrum;
      std::vector<double> power, magnitude;
    };
    const auto run_all = [&](const FftPlan& plan) {
      Result r;
      r.forward = cplx;
      plan.transform(r.forward, false);
      r.inverse = r.forward;
      plan.transform(r.inverse, true);
      r.spectrum.resize(n / 2 + 1);
      plan.rfft(real, r.spectrum);
      r.power.resize(n / 2 + 1);
      plan.power(real, r.power);
      r.magnitude.resize(n / 2 + 1);
      plan.magnitude(real, r.magnitude);
      return r;
    };
    const Result want = run_all(FftPlan(n));

    const FftPlan shared(n);
    constexpr int kThreads = 4;
    std::vector<Result> got(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (int round = 0; round < 20; ++round) got[t] = run_all(shared);
      });
    }
    for (std::thread& th : threads) th.join();

    const auto same = [&](const std::vector<Complex>& a,
                          const std::vector<Complex>& b) {
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(bits(a[k].real()), bits(b[k].real())) << k;
        ASSERT_EQ(bits(a[k].imag()), bits(b[k].imag())) << k;
      }
    };
    for (const Result& r : got) {
      same(r.forward, want.forward);
      same(r.inverse, want.inverse);
      same(r.spectrum, want.spectrum);
      for (std::size_t k = 0; k <= n / 2; ++k) {
        ASSERT_EQ(bits(r.power[k]), bits(want.power[k])) << k;
        ASSERT_EQ(bits(r.magnitude[k]), bits(want.magnitude[k])) << k;
      }
    }
  }
}

TEST(FftTest, ToneLandsInCorrectBin) {
  const std::size_t n = 256;
  const std::size_t bin = 19;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  }
  const auto mag = magnitude_spectrum(x);
  // A unit cosine at an exact bin has one-sided normalized magnitude 1/2.
  EXPECT_NEAR(mag[bin], 0.5, 1e-9);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    if (k != bin) {
      EXPECT_LT(mag[k], 1e-9);
    }
  }
}

TEST(FftTest, MagnitudeSpectrumSizeIsHalfPlusOne) {
  std::vector<double> x(100, 1.0);
  EXPECT_EQ(magnitude_spectrum(x).size(), 51u);
  EXPECT_TRUE(magnitude_spectrum({}).empty());
}

TEST(FftTest, DcSignalAllEnergyInBinZero) {
  std::vector<double> x(64, 3.0);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[0], 3.0, 1e-9);
  for (std::size_t k = 1; k < mag.size(); ++k) EXPECT_LT(mag[k], 1e-9);
}

TEST(FftTest, BinFrequency) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 64, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(32, 64, 200.0), 100.0);
  EXPECT_DOUBLE_EQ(bin_frequency(1, 100, 1000.0), 10.0);
}

TEST(FftTest, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(100));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
}

TEST(FftTest, LinearityProperty) {
  Rng rng(99);
  const std::size_t n = 64;
  std::vector<Complex> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = Complex(rng.gaussian(), 0.0);
    b[i] = Complex(rng.gaussian(), 0.0);
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fsum = fft(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex expect = 2.0 * fa[k] + 3.0 * fb[k];
    EXPECT_NEAR(std::abs(fsum[k] - expect), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace vibguard::dsp
