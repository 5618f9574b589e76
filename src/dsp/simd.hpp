// Runtime-dispatched SIMD kernels for the DSP hot paths.
//
// Every vectorizable inner loop in the DSP layer (FFT butterflies, the fused
// STFT frame kernel, mel filterbank/DCT dot products, the resampler's linear
// interpolation and FIR convolution, and the fused 2-D Pearson moments) is
// routed through one of the kernel entry points below. Each entry point
// dispatches through a per-process table of function pointers selected once
// at first use:
//
//   - scalar   : always compiled, byte-for-byte the pre-SIMD loops. Running
//                with VIBGUARD_SIMD=scalar reproduces the pre-dispatch
//                pipeline scores bit-identically.
//   - avx2     : x86-64 with AVX2+FMA, compiled in its own translation unit
//                (simd_avx2.cpp) with -mavx2 -mfma so the rest of the binary
//                stays baseline-ISA; selected only when cpuid reports both
//                features.
//   - neon     : aarch64 (NEON is baseline there); vectorizes the reduction
//                kernels, scalar for the rest.
//
// The VIBGUARD_SIMD environment variable (scalar|avx2|neon|auto) overrides
// auto-detection — the differential fuzz harness uses it (and set_level) to
// cross-check every dispatch level against the scalar reference.
//
// Numerical contract: kernels that map each output to an independent
// expression (multiply, butterfly_stage, fft_stage2_4, fft_stages,
// complex_multiply_to, rfft_split_power, linear_interp) are bit-identical
// across all levels —
// the vector lanes perform the same operations in the same order as the
// scalar code, and the SIMD translation units disable FP contraction. The
// reduction kernels (dot, dot_reverse, pearson_moments) reassociate their
// accumulation (vector lanes + FMA) and agree with scalar only to ULP-scaled
// tolerance; callers needing cross-level bit-identity must not rely on them.
#pragma once

#include <atomic>
#include <complex>
#include <cstddef>
#include <vector>

namespace vibguard::dsp::simd {

using Complex = std::complex<double>;

enum class Level {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
};

/// Human-readable level name ("scalar", "neon", "avx2").
const char* level_name(Level level);

/// Five raw moments of a paired sample, accumulated in one pass:
/// sum(a), sum(b), sum(a^2), sum(b^2), sum(a*b).
struct PearsonMoments {
  double sa = 0.0;
  double sb = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  double sab = 0.0;
};

/// The dispatch table: one function pointer per vectorized kernel. All
/// pointers are always valid (levels without a vector implementation of a
/// kernel point at the scalar one).
struct Ops {
  Level level;

  /// out[i] = a[i] * b[i] for i in [0, n). out may alias a or b.
  void (*multiply)(const double* a, const double* b, double* out,
                   std::size_t n);

  /// One radix-2 FFT stage over `half` butterflies:
  ///   v     = hi[j] * w_j   (w_j = tw[j], conjugated when `inverse`)
  ///   lo[j] = lo[j] + v,  hi[j] = lo[j] - v
  void (*butterfly_stage)(Complex* lo, Complex* hi, const Complex* tw,
                          std::size_t half, bool inverse);

  /// The fused multiplication-free len = 2 and len = 4 FFT stages over the
  /// whole bit-reversed buffer (twiddles are 1 and ∓i, so the butterflies
  /// reduce to adds/subs and a re/im swap). n must be a power of two.
  void (*fft_stage2_4)(Complex* d, std::size_t n, bool inverse);

  /// The table-twiddle radix-2 stages len = first_len, 2 * first_len, ...,
  /// n over an n-point buffer (none if first_len > n); first_len is a power
  /// of two >= 8. `tw` is a twiddle table laid out stage-major from len = 8:
  /// stage len's len/2 entries start at tw[len/2 - 4], so the table of any
  /// larger size serves too. The per-block loop runs inside the kernel so
  /// the butterfly inlines; run_pow2 calls it once per cache block for the
  /// early stages and once over the whole buffer for the rest.
  void (*fft_stages)(Complex* d, std::size_t n, std::size_t first_len,
                     const Complex* tw, bool inverse);

  /// out[i] = a[i] * b[i] (textbook complex product; out may alias a).
  void (*complex_multiply_to)(Complex* out, const Complex* a, const Complex* b,
                              std::size_t n);

  /// Conjugate-symmetric split of a packed half-length real-FFT spectrum
  /// straight into one-sided power bins k = 1..h-1:
  ///   even  = 0.5 * (z[k] + conj(z[h-k]))
  ///   odd   = (0, -0.5) * (z[k] - conj(z[h-k]))
  ///   X     = even + rtw[k] * odd
  ///   out[k] = |X|^2 * norm2
  /// Bins 0 and h are the caller's (they need only z[0]).
  void (*rfft_split_power)(const Complex* z, const Complex* rtw,
                           std::size_t h, double norm2, double* out);

  /// sum(a[i] * b[i]) for i in [0, n). Reduction: level-dependent rounding.
  double (*dot)(const double* a, const double* b, std::size_t n);

  /// sum(taps[t] * x[-t]) for t in [0, n) — the FIR convolution step, with
  /// x pointing at the newest sample. Reduction: level-dependent rounding.
  double (*dot_reverse)(const double* taps, const double* x, std::size_t n);

  /// Linear interpolation at a fixed rate ratio:
  ///   pos = i * ratio; lo = floor(pos); hi = min(lo + 1, in_size - 1)
  ///   out[i] = in[lo] * (1 - frac) + in[hi] * frac
  /// Requires floor((n - 1) * ratio) < in_size (the resampler's invariant).
  void (*linear_interp)(const double* in, std::size_t in_size, double ratio,
                        double* out, std::size_t n);

  /// Fused five-moment accumulation over paired samples. Reduction:
  /// level-dependent rounding.
  PearsonMoments (*pearson_moments)(const double* a, const double* b,
                                    std::size_t n);
};

namespace detail {
extern std::atomic<const Ops*> g_ops;
const Ops* resolve();
}  // namespace detail

/// The active dispatch table. Resolved once from VIBGUARD_SIMD + CPU
/// detection on first use; hot loops should hoist the reference.
inline const Ops& ops() {
  const Ops* p = detail::g_ops.load(std::memory_order_relaxed);
  return *(p != nullptr ? p : detail::resolve());
}

/// The level the active table implements.
Level active_level();

/// Best level this build + CPU supports (ignores the env override).
Level detect_level();

/// Levels available in this build on this CPU, best first. Always contains
/// kScalar.
std::vector<Level> available_levels();

/// Forces the dispatch table to `level`. Returns false (and leaves the
/// table unchanged) if the level is not available. Not synchronized with
/// concurrently running kernels — call from a quiescent point (tests do).
bool set_level(Level level);

/// Parses a VIBGUARD_SIMD-style string ("scalar", "avx2", "neon", "auto",
/// case-insensitive). Returns true and writes `out` on success; "auto" maps
/// to detect_level().
bool parse_level(const char* text, Level& out);

// Convenience wrappers for single call sites (hot loops hoist ops()).
inline void multiply(const double* a, const double* b, double* out,
                     std::size_t n) {
  ops().multiply(a, b, out, n);
}
inline double dot(const double* a, const double* b, std::size_t n) {
  return ops().dot(a, b, n);
}
inline double dot_reverse(const double* taps, const double* x,
                          std::size_t n) {
  return ops().dot_reverse(taps, x, n);
}
inline void linear_interp(const double* in, std::size_t in_size, double ratio,
                          double* out, std::size_t n) {
  ops().linear_interp(in, in_size, ratio, out, n);
}
inline PearsonMoments pearson_moments(const double* a, const double* b,
                                      std::size_t n) {
  return ops().pearson_moments(a, b, n);
}

/// The always-available scalar implementations, exported so tests can
/// compare any level's kernels against them directly.
namespace scalar {
extern const Ops kOps;
void multiply(const double* a, const double* b, double* out, std::size_t n);
void butterfly_stage(Complex* lo, Complex* hi, const Complex* tw,
                     std::size_t half, bool inverse);
void fft_stage2_4(Complex* d, std::size_t n, bool inverse);
void fft_stages(Complex* d, std::size_t n, std::size_t first_len,
                const Complex* tw, bool inverse);
void complex_multiply_to(Complex* out, const Complex* a, const Complex* b,
                         std::size_t n);
void rfft_split_power(const Complex* z, const Complex* rtw, std::size_t h,
                      double norm2, double* out);
double dot(const double* a, const double* b, std::size_t n);
double dot_reverse(const double* taps, const double* x, std::size_t n);
void linear_interp(const double* in, std::size_t in_size, double ratio,
                   double* out, std::size_t n);
PearsonMoments pearson_moments(const double* a, const double* b,
                               std::size_t n);
}  // namespace scalar

#if VIBGUARD_SIMD_AVX2
namespace avx2 {
extern const Ops kOps;
}
#endif
#if VIBGUARD_SIMD_NEON
namespace neon {
extern const Ops kOps;
}
#endif

}  // namespace vibguard::dsp::simd
