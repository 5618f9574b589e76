#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace vibguard {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: used only to expand the user seed into the 256-bit state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  VIBGUARD_REQUIRE(lo <= hi, "uniform bounds must satisfy lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  VIBGUARD_REQUIRE(lo <= hi, "uniform_int bounds must satisfy lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::gaussian(double mean, double stddev) {
  VIBGUARD_REQUIRE(stddev >= 0.0, "stddev must be non-negative");
  return mean + stddev * gaussian();
}

std::vector<double> Rng::gaussian_vector(std::size_t n, double stddev) {
  std::vector<double> out(n);
  for (auto& v : out) v = gaussian(0.0, stddev);
  return out;
}

Rng Rng::take_gaussians(std::size_t n) {
  Rng reserved = *this;
  if (n > 0 && has_spare_) {
    has_spare_ = false;
    --n;
  }
  // Each full pair costs gaussian()'s uniform draws: u1, redrawn while it
  // is exactly zero, then u2.
  for (; n >= 2; n -= 2) {
    while (((*this)() >> 11) == 0) {
    }
    (*this)();
  }
  if (n == 1) gaussian();  // leaves the pair's spare pending, as inline
  return reserved;
}

bool Rng::bernoulli(double p) {
  VIBGUARD_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0, 1]");
  return uniform() < p;
}

Rng Rng::fork(std::uint64_t label) const {
  // Mix the current state with the label through splitmix to derive an
  // independent stream without advancing the parent.
  std::uint64_t s = state_[0] ^ rotl(state_[2], 13) ^
                    (label * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return Rng(splitmix64(s));
}

}  // namespace vibguard
