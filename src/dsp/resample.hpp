// Sample-rate conversion.
//
// Two deliberately different paths are provided:
//   * resample()      — band-limited conversion with an anti-alias FIR, used
//                       where a faithful rate change is wanted.
//   * decimate_alias()— naive decimation with NO anti-alias filter. This is
//                       not an oversight: a MEMS accelerometer sampling a
//                       wideband mechanical excitation at 200 Hz folds
//                       high-frequency content into [0, 100] Hz, and that
//                       aliasing is exactly the signal path the paper's
//                       cross-domain sensing exploits (Sec. IV-B).
#pragma once

#include <cstddef>

#include "common/signal.hpp"

namespace vibguard::dsp {

/// Band-limited resampling to `target_rate` (anti-alias FIR + linear
/// interpolation on the filtered signal).
Signal resample(const Signal& in, double target_rate);

/// Length of resample() output for `n` samples at `rate`.
std::size_t resampled_size(std::size_t n, double rate, double target_rate);

/// Point-samples `in` at `target_rate` without an anti-alias filter,
/// intentionally folding content above target_rate/2 into the output band.
Signal decimate_alias(const Signal& in, double target_rate);

/// Allocation-free overload: writes the decimated signal into `out`,
/// reusing its capacity. Passing the same Signal object as `in` and `out`
/// is safe: the input is staged through a thread-local scratch copy first.
void decimate_alias_into(const Signal& in, double target_rate, Signal& out);

/// Linear-interpolated sampling at arbitrary positions (no filtering).
Signal sample_linear(const Signal& in, double target_rate);

}  // namespace vibguard::dsp
