// Reusable scratch storage for the allocation-free DSP entry points.
//
// The `_into`/scratch overloads scattered through dsp, sensors and device
// all write their temporaries into caller-owned buffers instead of fresh
// vectors. Scratch bundles those buffers so a pipeline Workspace (one per
// scoring thread) can own the whole set: after a few warm-up trials every
// vector has reached its high-water capacity and repeated scoring performs
// zero steady-state heap allocations.
//
// A Scratch instance is not thread-safe; give each thread its own (the
// core::Workspace does exactly that).
#pragma once

#include <complex>
#include <vector>

#include "common/signal.hpp"

namespace vibguard::dsp {

/// Buffers for FFT-based cross-correlation (cross_correlate /
/// estimate_delay scratch overloads).
struct CorrelationScratch {
  /// Both inputs' joint spectrum, then their cross-spectrum.
  std::vector<std::complex<double>> spectrum;
  std::vector<double> corr;
};

/// The full scratch set used by one scoring thread.
struct Scratch {
  /// FFT work buffer for apply_gain_curve-style zero-phase filtering.
  std::vector<std::complex<double>> cwork;
  /// One-sided magnitude spectrum buffer (band-energy measurements).
  std::vector<double> mag;
  /// Cross-correlation buffers for delay estimation.
  CorrelationScratch corr;
  /// Intermediate signals: a speaker-rendered waveform and its coupled
  /// (pre-decimation) vibration, plus the feature extractor's high-pass
  /// filtered copy. Each is private to one call; callers must not rely on
  /// their contents across entry points.
  Signal rendered;
  Signal coupled;
  Signal filtered;
};

}  // namespace vibguard::dsp
