#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/fft.hpp"

namespace vibguard::dsp {
namespace {

void cross_correlate_direct(std::span<const double> a,
                            std::span<const double> b, std::size_t max_lag,
                            std::vector<double>& out) {
  out.assign(2 * max_lag + 1, 0.0);
  const auto na = static_cast<std::ptrdiff_t>(a.size());
  const auto nb = static_cast<std::ptrdiff_t>(b.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto lag = static_cast<std::ptrdiff_t>(i) -
                     static_cast<std::ptrdiff_t>(max_lag);
    double acc = 0.0;
    for (std::ptrdiff_t n = 0; n < na; ++n) {
      const std::ptrdiff_t m = n + lag;
      if (m >= 0 && m < nb) acc += a[static_cast<std::size_t>(n)] *
                                   b[static_cast<std::size_t>(m)];
    }
    out[i] = acc;
  }
}

void cross_correlate_fft(std::span<const double> a, std::span<const double> b,
                         std::size_t max_lag, CorrelationScratch& scratch) {
  // corr(lag) = sum_n a(n) b(n+lag) = IFFT(conj(A) * B). Bin l of the
  // m-point circular result also collects the linear lags l ± m, which are
  // zero outside (-na, nb); m > max(na, nb) + max_lag keeps every such
  // alias out of [-max_lag, max_lag] (DESIGN.md §5a).
  const std::size_t m = next_pow2(std::max(a.size(), b.size()) + max_lag + 1);
  // Both real inputs share one transform: z = a + i*b.
  std::vector<Complex>& z = scratch.spectrum;
  z.assign(m, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < a.size(); ++i) z[i].real(a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) z[i].imag(b[i]);
  fft_pow2(z, false);
  // With Zr = conj(Z[m-k]): A[k] = (Z[k] + Zr) / 2, B[k] = (Z[k] - Zr) / 2i.
  // ar + i*ai = 2A and br + i*bi = 2B, so conj(A) * B is a quarter of their
  // product. The product is Hermitian, so bin m - k gets its conjugate.
  for (std::size_t k = 0; k <= m / 2; ++k) {
    const std::size_t r = (m - k) & (m - 1);
    const double ar = z[k].real() + z[r].real();
    const double ai = z[k].imag() - z[r].imag();
    const double br = z[k].imag() + z[r].imag();
    const double bi = z[r].real() - z[k].real();
    const Complex p(0.25 * (ar * br + ai * bi), 0.25 * (ar * bi - ai * br));
    z[k] = p;
    z[r] = std::conj(p);
  }
  fft_pow2(z, true);
  std::vector<double>& out = scratch.corr;
  out.assign(2 * max_lag + 1, 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto lag = static_cast<std::ptrdiff_t>(i) -
                     static_cast<std::ptrdiff_t>(max_lag);
    const std::size_t idx =
        lag >= 0 ? static_cast<std::size_t>(lag)
                 : m - static_cast<std::size_t>(-lag);
    out[i] = z[idx].real();
  }
}

}  // namespace

const std::vector<double>& cross_correlate(std::span<const double> a,
                                           std::span<const double> b,
                                           std::size_t max_lag,
                                           CorrelationScratch& scratch) {
  // Direct evaluation is cheaper for short inputs; FFT wins decisively for
  // the second-scale 16 kHz recordings the synchronizer handles.
  const std::size_t work = std::min(a.size(), b.size()) * (2 * max_lag + 1);
  if (work < 1u << 18) {
    cross_correlate_direct(a, b, max_lag, scratch.corr);
  } else {
    cross_correlate_fft(a, b, max_lag, scratch);
  }
  return scratch.corr;
}

std::vector<double> cross_correlate(std::span<const double> a,
                                    std::span<const double> b,
                                    std::size_t max_lag) {
  CorrelationScratch scratch;
  cross_correlate(a, b, max_lag, scratch);
  return std::move(scratch.corr);
}

std::ptrdiff_t estimate_delay(std::span<const double> a,
                              std::span<const double> b, std::size_t max_lag,
                              CorrelationScratch& scratch) {
  const auto& corr = cross_correlate(a, b, max_lag, scratch);
  const auto best =
      std::max_element(corr.begin(), corr.end()) - corr.begin();
  return best - static_cast<std::ptrdiff_t>(max_lag);
}

std::ptrdiff_t estimate_delay(std::span<const double> a,
                              std::span<const double> b,
                              std::size_t max_lag) {
  CorrelationScratch scratch;
  return estimate_delay(a, b, max_lag, scratch);
}

std::pair<Signal, Signal> align_by_delay(const Signal& a, const Signal& b,
                                         std::ptrdiff_t delay) {
  VIBGUARD_REQUIRE(a.sample_rate() == b.sample_rate(),
                   "alignment requires matching sample rates");
  Signal ta = a, tb = b;
  if (delay > 0) {
    const auto d = std::min<std::size_t>(static_cast<std::size_t>(delay),
                                         tb.size());
    tb = tb.slice(d, tb.size());
  } else if (delay < 0) {
    const auto d = std::min<std::size_t>(static_cast<std::size_t>(-delay),
                                         ta.size());
    ta = ta.slice(d, ta.size());
  }
  const std::size_t n = std::min(ta.size(), tb.size());
  return {ta.slice(0, n), tb.slice(0, n)};
}

double peak_normalized_correlation(std::span<const double> a,
                                   std::span<const double> b,
                                   std::size_t max_lag) {
  double ea = 0.0, eb = 0.0;
  for (double x : a) ea += x * x;
  for (double x : b) eb += x * x;
  if (ea <= 0.0 || eb <= 0.0) return 0.0;
  const auto corr = cross_correlate(a, b, max_lag);
  double best = 0.0;
  for (double c : corr) best = std::max(best, std::abs(c));
  return best / std::sqrt(ea * eb);
}

}  // namespace vibguard::dsp
