#include "dsp/fft_plan.hpp"

#include <cmath>
#include <cstring>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {

// The bit-reversal permutation as the swap pairs (i < j) the in-place pass
// applies, and the per-stage twiddles (stages concatenated: len = 8, 16,
// ..., n; 64-byte aligned, since the SIMD butterfly kernels stream them
// every transform). Shared by every plan that runs size n.
struct Pow2Tables {
  explicit Pow2Tables(std::size_t n);

  std::vector<std::size_t> bitrev;
  AlignedVector<Complex> twiddles;
};

namespace {

// exp(-2*pi*i * j / len) — forward-transform twiddle.
Complex unit_root(std::size_t j, std::size_t len) {
  const double angle =
      -2.0 * std::numbers::pi * static_cast<double>(j) /
      static_cast<double>(len);
  return Complex(std::cos(angle), std::sin(angle));
}

// The process-wide table for power-of-two size n. Entries live as long as
// the process; there is one per size ever run, so together they take at
// most twice the largest.
std::shared_ptr<const Pow2Tables> shared_pow2_tables(std::size_t n) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t, std::shared_ptr<const Pow2Tables>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = tables[n];
  if (slot == nullptr) slot = std::make_shared<const Pow2Tables>(n);
  return slot;
}

}  // namespace

Pow2Tables::Pow2Tables(std::size_t n) {
  // Swap pairs, so the hot loop touches each pair exactly once.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      bitrev.push_back(i);
      bitrev.push_back(j);
    }
  }

  // Per-stage twiddles for stages len = 8..n (the len = 2 and len = 4
  // stages are multiplication-free and handled inline).
  for (std::size_t len = 8; len <= n; len <<= 1) {
    for (std::size_t j = 0; j < len / 2; ++j) {
      twiddles.push_back(unit_root(j, len));
    }
  }
}

FftPlan::FftPlan(std::size_t n) : n_(n) { init(/*build_real=*/true); }

FftPlan::FftPlan(std::size_t n, bool build_real) : n_(n) { init(build_real); }

void FftPlan::init(bool build_real) {
  VIBGUARD_REQUIRE(n_ > 0, "FFT plan size must be positive");
  is_pow2_ = is_pow2(n_);
  pow2_n_ = is_pow2_ ? n_ : next_pow2(2 * n_ - 1);

  pow2_ = shared_pow2_tables(pow2_n_);

  if (!is_pow2_) {
    // Bluestein: cache the chirp w[k] = exp(-i*pi*k^2/n) and the forward
    // FFT of the convolution kernel b[k] = conj(w[|k|]).
    m_ = pow2_n_;
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      // k^2 mod 2n avoids precision loss for large k.
      const auto k2 = static_cast<double>((k * k) % (2 * n_));
      const double angle =
          -std::numbers::pi * k2 / static_cast<double>(n_);
      chirp_[k] = Complex(std::cos(angle), std::sin(angle));
    }
    bspec_.assign(m_, Complex(0.0, 0.0));
    bspec_[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
      bspec_[k] = bspec_[m_ - k] = std::conj(chirp_[k]);
    }
    run_pow2(bspec_, false);
  }

  if (build_real && n_ % 2 == 0) {
    const std::size_t h = n_ / 2;
    half_ = std::unique_ptr<FftPlan>(new FftPlan(h, /*build_real=*/false));
    rtwiddle_.resize(h + 1);
    for (std::size_t k = 0; k <= h; ++k) rtwiddle_[k] = unit_root(k, n_);
    rscratch_.resize(h);
  }
}

void FftPlan::run_pow2(std::span<Complex> data, bool inverse) const {
  const std::size_t n = data.size();
  Complex* d = data.data();
  const std::vector<std::size_t>& bitrev = pow2_->bitrev;
  for (std::size_t p = 0; p + 1 < bitrev.size(); p += 2) {
    std::swap(d[bitrev[p]], d[bitrev[p + 1]]);
  }

  const simd::Ops& ops = simd::ops();

  // The len = 2 and len = 4 stages have multiplication-free twiddles (1 and
  // ∓i) and run fused through one dispatched kernel.
  ops.fft_stage2_4(d, n, inverse);

  // Remaining stages read twiddles from the table and run fused through one
  // dispatched kernel (scalar fallback is the pre-SIMD loop).
  ops.fft_stages(d, n, pow2_->twiddles.data(), inverse);

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) d[i] *= inv_n;
  }
}

void FftPlan::transform(std::span<Complex> data, bool inverse) const {
  VIBGUARD_REQUIRE(data.size() == n_, "buffer size must match plan size");
  if (is_pow2_) {
    run_pow2(data, inverse);
    return;
  }

  // Bluestein via the cached chirp. The inverse transform reuses the
  // forward chirp through DFT^-1(x) = conj(DFT(conj(x))) / n.
  if (inverse) {
    for (Complex& x : data) x = std::conj(x);
  }
  // One buffer per thread serves every Bluestein plan on it: a transform
  // never nests another Bluestein transform. It only grows, so plans of
  // alternating sizes never refill it.
  thread_local AlignedVector<Complex> scratch;
  if (scratch.size() < m_) scratch.resize(m_);
  const std::span<Complex> work(scratch.data(), m_);
  std::fill(work.begin() + static_cast<std::ptrdiff_t>(n_), work.end(),
            Complex(0.0, 0.0));
  const simd::Ops& ops = simd::ops();
  ops.complex_multiply_to(work.data(), data.data(), chirp_.data(), n_);
  run_pow2(work, false);
  ops.complex_multiply_to(work.data(), work.data(), bspec_.data(), m_);
  run_pow2(work, true);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      data[k] = std::conj(work[k] * chirp_[k]) * inv_n;
    }
  } else {
    for (std::size_t k = 0; k < n_; ++k) data[k] = work[k] * chirp_[k];
  }
}

void FftPlan::rfft(std::span<const double> in, std::span<Complex> out) const {
  VIBGUARD_REQUIRE(in.size() == n_, "input size must match plan size");
  VIBGUARD_REQUIRE(out.size() == n_ / 2 + 1,
                   "rfft output needs n/2 + 1 bins");
  if (n_ == 1) {
    out[0] = Complex(in[0], 0.0);
    return;
  }
  if (n_ % 2 != 0) {
    // Odd length: no conjugate-symmetric split; run the complex path.
    rscratch_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) rscratch_[i] = Complex(in[i], 0.0);
    transform(rscratch_, false);
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = rscratch_[k];
    return;
  }

  // Pack adjacent real samples into one complex sequence of half length,
  // transform, then split the even/odd sub-spectra by conjugate symmetry:
  //   X[k] = E[k] + exp(-2*pi*i*k/n) * O[k].
  const std::size_t h = n_ / 2;
  rscratch_.resize(h);
  for (std::size_t j = 0; j < h; ++j) {
    rscratch_[j] = Complex(in[2 * j], in[2 * j + 1]);
  }
  half_->transform(rscratch_, false);

  const Complex z0 = rscratch_[0];
  out[0] = Complex(z0.real() + z0.imag(), 0.0);
  out[h] = Complex(z0.real() - z0.imag(), 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk = rscratch_[k];
    const Complex zc = std::conj(rscratch_[h - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    out[k] = even + rtwiddle_[k] * odd;
  }
}

void FftPlan::magnitude(std::span<const double> in,
                        std::span<double> out) const {
  power(in, out);
  for (double& v : out) v = std::sqrt(v);
}

void FftPlan::packed_power(std::span<double> out, double norm2) const {
  const std::size_t h = n_ / 2;
  half_->transform(rscratch_, false);
  const Complex z0 = rscratch_[0];
  const double x0 = z0.real() + z0.imag();
  const double xh = z0.real() - z0.imag();
  out[0] = x0 * x0 * norm2;
  out[h] = xh * xh * norm2;
  simd::ops().rfft_split_power(rscratch_.data(), rtwiddle_.data(), h, norm2,
                               out.data());
}

void FftPlan::power(std::span<const double> in, std::span<double> out) const {
  VIBGUARD_REQUIRE(in.size() == n_, "input size must match plan size");
  VIBGUARD_REQUIRE(out.size() == n_ / 2 + 1,
                   "power spectrum needs n/2 + 1 bins");
  const double norm = 1.0 / static_cast<double>(n_);
  const double norm2 = norm * norm;
  if (n_ > 1 && n_ % 2 == 0) {
    // Packing adjacent real samples into complex pairs is a straight copy.
    const std::size_t h = n_ / 2;
    rscratch_.resize(h);
    std::memcpy(reinterpret_cast<double*>(rscratch_.data()), in.data(),
                n_ * sizeof(double));
    packed_power(out, norm2);
    return;
  }
  thread_local std::vector<Complex> spec;
  spec.resize(n_ / 2 + 1);
  rfft(in, spec);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = std::norm(spec[k]) * norm2;
  }
}

void FftPlan::windowed_power(const double* in, const double* window,
                             std::span<double> out) const {
  VIBGUARD_REQUIRE(out.size() == n_ / 2 + 1,
                   "power spectrum needs n/2 + 1 bins");
  const double norm = 1.0 / static_cast<double>(n_);
  const double norm2 = norm * norm;
  if (n_ > 1 && n_ % 2 == 0) {
    // Window while packing: the windowed frame never hits memory. A
    // complex<double> array is array-of-double compatible, so the packed
    // buffer is just the elementwise product written in place.
    const std::size_t h = n_ / 2;
    rscratch_.resize(h);
    simd::multiply(in, window, reinterpret_cast<double*>(rscratch_.data()),
                   n_);
    packed_power(out, norm2);
    return;
  }
  thread_local std::vector<double> frame;
  frame.resize(n_);
  simd::multiply(in, window, frame.data(), n_);
  power(frame, out);
}

const FftPlan& get_plan(std::size_t n) {
  thread_local std::unordered_map<std::size_t, std::unique_ptr<FftPlan>>
      cache;
  auto& slot = cache[n];
  if (slot == nullptr) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

}  // namespace vibguard::dsp
