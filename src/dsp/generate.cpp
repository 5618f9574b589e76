#include "dsp/generate.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"

namespace vibguard::dsp {
namespace {

std::size_t sample_count(double duration_s, double sample_rate) {
  VIBGUARD_REQUIRE(duration_s >= 0.0, "duration must be non-negative");
  VIBGUARD_REQUIRE(sample_rate > 0.0, "sample rate must be positive");
  return static_cast<std::size_t>(std::round(duration_s * sample_rate));
}

}  // namespace

Signal tone(double frequency_hz, double duration_s, double sample_rate,
            double amplitude, double phase) {
  const std::size_t n = sample_count(duration_s, sample_rate);
  std::vector<double> out(n);
  const double w = 2.0 * std::numbers::pi * frequency_hz / sample_rate;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(w * static_cast<double>(i) + phase);
  }
  return Signal(std::move(out), sample_rate);
}

Signal chirp(double f0_hz, double f1_hz, double duration_s,
             double sample_rate, double amplitude) {
  const std::size_t n = sample_count(duration_s, sample_rate);
  std::vector<double> out(n);
  const double k = n > 1 ? (f1_hz - f0_hz) / duration_s : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / sample_rate;
    const double phase =
        2.0 * std::numbers::pi * (f0_hz * t + 0.5 * k * t * t);
    out[i] = amplitude * std::sin(phase);
  }
  return Signal(std::move(out), sample_rate);
}

Signal white_noise(double duration_s, double sample_rate, double stddev,
                   Rng& rng) {
  const std::size_t n = sample_count(duration_s, sample_rate);
  return Signal(rng.gaussian_vector(n, stddev), sample_rate);
}

Signal pink_noise(double duration_s, double sample_rate, double stddev,
                  Rng& rng) {
  const std::size_t n = sample_count(duration_s, sample_rate);
  constexpr std::size_t kRows = kPinkNoiseRows;
  std::vector<double> rows(kRows, 0.0);
  for (double& r : rows) r = rng.gaussian();
  std::vector<double> out(n);
  double running = 0.0;
  for (double r : rows) running += r;
  for (std::size_t i = 0; i < n; ++i) {
    // Update the row whose bit toggles at this index (Voss–McCartney).
    std::size_t row = 0;
    std::size_t idx = i;
    while (row + 1 < kRows && (idx & 1) == 0 && idx != 0) {
      idx >>= 1;
      ++row;
    }
    running -= rows[row];
    rows[row] = rng.gaussian();
    running += rows[row];
    out[i] = running / std::sqrt(static_cast<double>(kRows));
  }
  Signal sig(std::move(out), sample_rate);
  const double current = sig.rms();
  if (current > 0.0) sig.scale(stddev / current);
  return sig;
}

}  // namespace vibguard::dsp
