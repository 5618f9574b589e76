#include "dsp/filter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {

std::vector<double> design_fir_lowpass(double cutoff_hz, double sample_rate,
                                       std::size_t num_taps) {
  VIBGUARD_REQUIRE(num_taps % 2 == 1, "FIR length must be odd");
  VIBGUARD_REQUIRE(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
                   "cutoff must be in (0, fs/2)");
  const double fc = cutoff_hz / sample_rate;  // normalized cutoff
  const auto mid = static_cast<double>(num_taps - 1) / 2.0;
  std::vector<double> taps(num_taps);
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double m = static_cast<double>(i) - mid;
    const double sinc =
        m == 0.0 ? 2.0 * fc
                 : std::sin(2.0 * std::numbers::pi * fc * m) /
                       (std::numbers::pi * m);
    const double hamming =
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(i) /
                               static_cast<double>(num_taps - 1));
    taps[i] = sinc * hamming;
    sum += taps[i];
  }
  for (double& t : taps) t /= sum;  // unity DC gain
  return taps;
}

std::vector<double> fir_filter(std::span<const double> x,
                               std::span<const double> taps) {
  VIBGUARD_REQUIRE(!taps.empty(), "FIR taps must be non-empty");
  const std::size_t n = x.size();
  const std::size_t num_taps = taps.size();
  const std::size_t delay = (num_taps - 1) / 2;
  std::vector<double> y(n, 0.0);
  const simd::Ops& ops = simd::ops();
  for (std::size_t i = 0; i < n; ++i) {
    // Output index i corresponds to convolution index i + delay.
    const std::size_t conv = i + delay;
    if (conv + 1 >= num_taps && conv < n) {
      // Interior sample: every tap lands in-bounds, so the whole
      // convolution is one reverse dot product.
      y[i] = ops.dot_reverse(taps.data(), x.data() + conv, num_taps);
      continue;
    }
    double acc = 0.0;
    for (std::size_t t = 0; t < num_taps; ++t) {
      if (conv >= t && conv - t < n) acc += taps[t] * x[conv - t];
    }
    y[i] = acc;
  }
  return y;
}

Signal apply_gain_curve(const Signal& in,
                        const std::function<double(double)>& gain) {
  Signal out;
  std::vector<Complex> work;
  apply_gain_curve(in, gain, out, work);
  return out;
}

namespace {

// Frequency of one-sided bin k on the m-point grid at fs: where both the
// std::function and the table overload sample a curve.
double grid_hz(std::size_t k, std::size_t m, double fs) {
  return static_cast<double>(k) * fs / static_cast<double>(m);
}

// The zero-phase filter's one pass: transform, scale one-sided bin k and
// its mirror by gain_at(k, m, fs), inverse-transform.
template <typename GainAt>
void filter_bins(const Signal& in, const GainAt& gain_at, Signal& out,
                 std::vector<Complex>& work) {
  if (in.empty()) {
    if (&out != &in) out = in;
    return;
  }
  const std::size_t n = in.size();
  const std::size_t m = next_pow2(n);
  const double fs = in.sample_rate();
  work.assign(m, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < n; ++i) work[i] = Complex(in[i], 0.0);
  fft_pow2(work, false);
  // Scale bins conjugate-symmetrically so the inverse transform stays real.
  for (std::size_t k = 0; k <= m / 2; ++k) {
    const double g = gain_at(k, m, fs);
    work[k] *= g;
    if (k != 0 && k != m / 2) work[m - k] *= g;
  }
  fft_pow2(work, true);
  // `in` is fully consumed; writing `out` now makes in-place calls safe.
  if (&out != &in) out.reset(fs);
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = work[i].real();
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

// Per-cache entry bound: real callers use a few device configs times a few
// command-length grids; the bound only stops unbounded growth.
constexpr std::size_t kMaxGainTables = 32;

}  // namespace

void apply_gain_curve(const Signal& in,
                      const std::function<double(double)>& gain, Signal& out,
                      std::vector<std::complex<double>>& work) {
  filter_bins(
      in,
      [&gain](std::size_t k, std::size_t m, double fs) {
        return gain(grid_hz(k, m, fs));
      },
      out, work);
}

void apply_gain_curve(const Signal& in, std::span<const double> table,
                      Signal& out, std::vector<std::complex<double>>& work) {
  VIBGUARD_REQUIRE(
      in.empty() || table.size() == next_pow2(in.size()) / 2 + 1,
      "gain table must match the signal's FFT grid");
  filter_bins(
      in, [table](std::size_t k, std::size_t, double) { return table[k]; },
      out, work);
}

std::span<const double> GainTableCache::get(
    std::initializer_list<double> params, const Signal& in,
    const std::function<double(double)>& gain) {
  if (in.empty()) return {};
  const std::size_t m = next_pow2(in.size());
  const double fs = in.sample_rate();
  for (const Entry& e : entries_) {
    if (e.fft_size == m && same_bits(e.sample_rate, fs) &&
        std::equal(e.params.begin(), e.params.end(), params.begin(),
                   params.end(), same_bits)) {
      return e.table;
    }
  }
  if (entries_.size() == kMaxGainTables) entries_.erase(entries_.begin());
  Entry& e = entries_.emplace_back();
  e.params.assign(params);
  e.fft_size = m;
  e.sample_rate = fs;
  e.table.resize(m / 2 + 1);
  for (std::size_t k = 0; k <= m / 2; ++k) {
    e.table[k] = gain(grid_hz(k, m, fs));
  }
  return e.table;
}

}  // namespace vibguard::dsp
