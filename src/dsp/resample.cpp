#include "dsp/resample.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "dsp/filter.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {
namespace {

void interpolate_at_rate_into(const Signal& in, double target_rate,
                              Signal& out) {
  if (in.empty()) {
    // Avoids the 0/0 ratio below when `in` is empty (a default-constructed
    // Signal also has sample rate 0, making the ratio NaN).
    out.reset(target_rate);
    return;
  }
  if (&in == &out) {
    // Self-aliasing: out.reset()/resize() below would destroy the input
    // before it is read, so interpolate from a scratch copy instead. The
    // copy is thread-local so repeated aliased calls stay allocation-free
    // at steady state.
    thread_local Signal scratch;
    scratch.assign(in.samples(), in.sample_rate());
    interpolate_at_rate_into(scratch, target_rate, out);
    return;
  }
  const double ratio = in.sample_rate() / target_rate;
  const std::size_t out_len =
      resampled_size(in.size(), in.sample_rate(), target_rate);
  out.reset(target_rate);
  out.resize(out_len);
  simd::linear_interp(in.samples().data(), in.size(), ratio,
                      out.samples().data(), out_len);
}

Signal interpolate_at_rate(const Signal& in, double target_rate) {
  Signal out;
  interpolate_at_rate_into(in, target_rate, out);
  return out;
}

}  // namespace

std::size_t resampled_size(std::size_t n, double rate, double target_rate) {
  if (n == 0 || target_rate == rate) return n;
  // The anti-alias FIR keeps the length; interpolation sets it.
  const double ratio = rate / target_rate;
  return static_cast<std::size_t>(std::floor(static_cast<double>(n) / ratio));
}

Signal resample(const Signal& in, double target_rate) {
  VIBGUARD_REQUIRE(target_rate > 0.0, "target rate must be positive");
  if (in.empty() || target_rate == in.sample_rate()) {
    return Signal(std::vector<double>(in.begin(), in.end()),
                  in.empty() ? target_rate : in.sample_rate());
  }
  if (target_rate < in.sample_rate()) {
    // Anti-alias below the new Nyquist before decimating.
    const double cutoff = 0.45 * target_rate;
    const auto taps = design_fir_lowpass(cutoff, in.sample_rate(), 101);
    Signal filtered(fir_filter(in.samples(), taps), in.sample_rate());
    return interpolate_at_rate(filtered, target_rate);
  }
  return interpolate_at_rate(in, target_rate);
}

Signal decimate_alias(const Signal& in, double target_rate) {
  Signal out;
  decimate_alias_into(in, target_rate, out);
  return out;
}

void decimate_alias_into(const Signal& in, double target_rate, Signal& out) {
  VIBGUARD_REQUIRE(target_rate > 0.0, "target rate must be positive");
  VIBGUARD_REQUIRE(target_rate <= in.sample_rate(),
                   "decimate_alias cannot upsample");
  interpolate_at_rate_into(in, target_rate, out);
}

Signal sample_linear(const Signal& in, double target_rate) {
  VIBGUARD_REQUIRE(target_rate > 0.0, "target rate must be positive");
  return interpolate_at_rate(in, target_rate);
}

}  // namespace vibguard::dsp
