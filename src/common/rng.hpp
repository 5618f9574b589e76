// Deterministic random number generation.
//
// Every stochastic component in VibGuard draws randomness through an Rng
// seeded explicitly by the caller, so that experiments are reproducible
// bit-for-bit. The generator is xoshiro256** (public domain, Blackman &
// Vigna), which is fast, has a 256-bit state and passes BigCrush.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace vibguard {

/// Deterministic pseudo-random generator with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions and std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Two Rng instances constructed with the same seed
  /// produce identical streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw (Box–Muller, cached spare).
  double gaussian();

  /// Normal draw with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Vector of n i.i.d. N(0, stddev^2) samples.
  std::vector<double> gaussian_vector(std::size_t n, double stddev = 1.0);

  /// Reserves the next n standard-normal draws: returns a copy of this
  /// generator positioned at them and advances this one exactly as n calls
  /// to gaussian() would, a pending Box–Muller spare included. The copy's
  /// first n gaussian() calls return the reserved values. Costs about one
  /// raw draw per reserved value and computes no normals but the last odd
  /// pair's, whose spare this generator keeps.
  Rng take_gaussians(std::size_t n);

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p);

  /// Derives an independent child generator. Children with distinct labels
  /// produce decorrelated streams; the parent stream is not advanced.
  Rng fork(std::uint64_t label) const;

 private:
  std::array<std::uint64_t, 4> state_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace vibguard
