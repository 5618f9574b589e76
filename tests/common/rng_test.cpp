#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace vibguard {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformRejectsInvertedBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
}

TEST(RngTest, UniformIntCoversFullRangeInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 9);
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(19);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(23);
  const auto xs = rng.gaussian_vector(200000);
  EXPECT_NEAR(mean(xs), 0.0, 0.01);
  EXPECT_NEAR(stddev(xs), 1.0, 0.01);
}

TEST(RngTest, GaussianScaleAndShift) {
  Rng rng(29);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(mean(xs), 10.0, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(RngTest, GaussianRejectsNegativeStddev) {
  Rng rng(1);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), InvalidArgument);
}

TEST(RngTest, BernoulliFrequencyMatchesProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ForkIsDeterministicAndIndependent) {
  Rng parent(41);
  Rng c1 = parent.fork(1);
  Rng c1_again = parent.fork(1);
  EXPECT_EQ(c1(), c1_again());
  // Distinct labels give distinct streams.
  Rng d1 = parent.fork(1);
  Rng d2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (d1() == d2()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng a(43), b(43);
  (void)a.fork(99);
  EXPECT_EQ(a(), b());
}

TEST(RngTest, GaussianVectorLength) {
  Rng rng(47);
  EXPECT_EQ(rng.gaussian_vector(17).size(), 17u);
  EXPECT_TRUE(rng.gaussian_vector(0).empty());
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// After take_gaussians(n), the reserved copy draws the n values inline
// gaussian() calls would, and both it and the parent then continue the
// inline stream: uniforms, and normals from the right half of the right
// Box–Muller pair.
TEST(RngTest, TakeGaussiansMatchesInlineDraws) {
  for (const std::size_t n : {0u, 1u, 2u, 3u, 1001u}) {
    for (const bool spare : {false, true}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " spare=" << spare);
      Rng expected(61), parent(61);
      if (spare) {
        expected.gaussian();  // leaves the pair's second normal pending
        parent.gaussian();
      }
      Rng reserved = parent.take_gaussians(n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(reserved.gaussian()), bits(expected.gaussian()));
      }
      for (Rng* r : {&parent, &reserved}) {
        Rng inline_rng = expected;
        for (int k = 0; k < 3; ++k) {
          EXPECT_EQ(bits(r->uniform()), bits(inline_rng.uniform()));
          EXPECT_EQ(bits(r->gaussian()), bits(inline_rng.gaussian()));
          EXPECT_EQ(bits(r->gaussian()), bits(inline_rng.gaussian()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace vibguard
