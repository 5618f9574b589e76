#include "dsp/simd.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace vibguard::dsp::simd {

// ---------------------------------------------------------------------------
// Scalar kernels. These are the pre-SIMD inner loops moved verbatim: the
// expressions and accumulation order must not change, because
// VIBGUARD_SIMD=scalar is the repo's bit-identical reference path.
// ---------------------------------------------------------------------------
namespace scalar {

void multiply(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void butterfly_stage(Complex* lo, Complex* hi, const Complex* tw,
                     std::size_t half, bool inverse) {
  // Spelled out on raw doubles so the compiler can vectorize without the
  // NaN-handling branches of complex operator*.
  for (std::size_t j = 0; j < half; ++j) {
    const double wr = tw[j].real();
    const double wi = inverse ? -tw[j].imag() : tw[j].imag();
    const double xr = hi[j].real();
    const double xi = hi[j].imag();
    const double vr = xr * wr - xi * wi;
    const double vi = xr * wi + xi * wr;
    const double ur = lo[j].real();
    const double ui = lo[j].imag();
    lo[j] = Complex(ur + vr, ui + vi);
    hi[j] = Complex(ur - vr, ui - vi);
  }
}

void fft_stage2_4(Complex* d, std::size_t n, bool inverse) {
  // Stage len = 2: butterflies with w = 1.
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const Complex u = d[i];
    const Complex v = d[i + 1];
    d[i] = u + v;
    d[i + 1] = u - v;
  }
  // Stage len = 4: w is 1 or -i (forward) / +i (inverse).
  if (n >= 4) {
    for (std::size_t i = 0; i < n; i += 4) {
      const Complex u0 = d[i];
      const Complex v0 = d[i + 2];
      d[i] = u0 + v0;
      d[i + 2] = u0 - v0;
      const Complex x = d[i + 3];
      const Complex v1 = inverse ? Complex(-x.imag(), x.real())
                                 : Complex(x.imag(), -x.real());
      const Complex u1 = d[i + 1];
      d[i + 1] = u1 + v1;
      d[i + 3] = u1 - v1;
    }
  }
}

void fft_stages(Complex* d, std::size_t n, std::size_t first_len,
                const Complex* tw, bool inverse) {
  for (std::size_t len = first_len; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      butterfly_stage(d + i, d + i + half, tw + (half - 4), half, inverse);
    }
  }
}

void complex_multiply_to(Complex* out, const Complex* a, const Complex* b,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real();
    const double ai = a[i].imag();
    const double br = b[i].real();
    const double bi = b[i].imag();
    out[i] = Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
}

void rfft_split_power(const Complex* z, const Complex* rtw, std::size_t h,
                      double norm2, double* out) {
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zc = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    const Complex x = even + rtw[k] * odd;
    out[k] = (x.real() * x.real() + x.imag() * x.imag()) * norm2;
  }
}

double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double dot_reverse(const double* taps, const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t t = 0; t < n; ++t) acc += taps[t] * x[-static_cast<std::ptrdiff_t>(t)];
  return acc;
}

void linear_interp(const double* in, std::size_t in_size, double ratio,
                   double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double pos = static_cast<double>(i) * ratio;
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = lo + 1 < in_size ? lo + 1 : lo;
    const double frac = pos - static_cast<double>(lo);
    out[i] = in[lo] * (1.0 - frac) + in[hi] * frac;
  }
}

PearsonMoments pearson_moments(const double* a, const double* b,
                               std::size_t n) {
  PearsonMoments m;
  for (std::size_t i = 0; i < n; ++i) {
    const double xa = a[i];
    const double xb = b[i];
    m.sa += xa;
    m.sb += xb;
    m.saa += xa * xa;
    m.sbb += xb * xb;
    m.sab += xa * xb;
  }
  return m;
}

const Ops kOps = {
    .level = Level::kScalar,
    .multiply = &multiply,
    .butterfly_stage = &butterfly_stage,
    .fft_stage2_4 = &fft_stage2_4,
    .fft_stages = &fft_stages,
    .complex_multiply_to = &complex_multiply_to,
    .rfft_split_power = &rfft_split_power,
    .dot = &dot,
    .dot_reverse = &dot_reverse,
    .linear_interp = &linear_interp,
    .pearson_moments = &pearson_moments,
};

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------
namespace {

const Ops* table_for(Level level) {
  switch (level) {
    case Level::kScalar:
      return &scalar::kOps;
#if VIBGUARD_SIMD_AVX2
    case Level::kAvx2:
      return &avx2::kOps;
#endif
#if VIBGUARD_SIMD_NEON
    case Level::kNeon:
      return &neon::kOps;
#endif
    default:
      return nullptr;
  }
}

bool level_supported(Level level) {
  if (level == Level::kScalar) return true;
#if VIBGUARD_SIMD_AVX2
  if (level == Level::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
#if VIBGUARD_SIMD_NEON
  if (level == Level::kNeon) return true;  // NEON is baseline on aarch64
#endif
  return false;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level detect_level() {
  if (level_supported(Level::kAvx2)) return Level::kAvx2;
  if (level_supported(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}

std::vector<Level> available_levels() {
  std::vector<Level> out;
  for (Level l : {Level::kAvx2, Level::kNeon}) {
    if (level_supported(l)) out.push_back(l);
  }
  out.push_back(Level::kScalar);
  return out;
}

bool parse_level(const char* text, Level& out) {
  if (text == nullptr) return false;
  std::string s(text);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "auto") {
    out = detect_level();
    return true;
  }
  if (s == "scalar") {
    out = Level::kScalar;
    return true;
  }
  if (s == "avx2") {
    out = Level::kAvx2;
    return true;
  }
  if (s == "neon") {
    out = Level::kNeon;
    return true;
  }
  return false;
}

namespace detail {

std::atomic<const Ops*> g_ops{nullptr};

const Ops* resolve() {
  // First use: honor VIBGUARD_SIMD, then fall back to detection. The CAS
  // makes concurrent first calls converge on one table; set_level wins if
  // it already stored one.
  Level level = detect_level();
  if (const char* env = std::getenv("VIBGUARD_SIMD")) {
    Level requested;
    if (!parse_level(env, requested)) {
      std::fprintf(stderr,
                   "vibguard: ignoring invalid VIBGUARD_SIMD=%s "
                   "(want scalar|avx2|neon|auto)\n",
                   env);
    } else if (!level_supported(requested)) {
      std::fprintf(stderr,
                   "vibguard: VIBGUARD_SIMD=%s not supported on this "
                   "build/CPU; using %s\n",
                   env, level_name(level));
    } else {
      level = requested;
    }
  }
  const Ops* expected = nullptr;
  g_ops.compare_exchange_strong(expected, table_for(level),
                                std::memory_order_acq_rel);
  return g_ops.load(std::memory_order_relaxed);
}

}  // namespace detail

Level active_level() { return ops().level; }

bool set_level(Level level) {
  if (!level_supported(level)) return false;
  detail::g_ops.store(table_for(level), std::memory_order_release);
  return true;
}

}  // namespace vibguard::dsp::simd
