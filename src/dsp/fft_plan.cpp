#include "dsp/fft_plan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"

namespace vibguard::dsp {

// Sizes from here up reverse their index bits tile by tile; smaller ones
// stream the swap-pair table, which is faster while the buffer fits in L1.
// Measured on a 4-vCPU Xeon VM (48 KiB L1d per core), one core, Release:
// the table pass takes 1.8 µs at 2048 points against 2.3 µs tiled, and
// 8.2 µs at 4096 points against 5.6 µs tiled (README, "Performance → FFT
// plans").
constexpr std::size_t kTiledReversalMin = 4096;

// log2 of a reversal tile's side: a tile is 16 rows of 16 points, and the
// exchange buffer takes 4 KiB of stack.
constexpr unsigned kTileBits = 4;
constexpr std::size_t kTile = std::size_t{1} << kTileBits;
static_assert(kTiledReversalMin >= kTile * kTile,
              "a tiled size needs room for the two tile axes");

// Stages len = 2..kStageBlock run on one block of this many points at a
// time, while the block sits in L1; the stages above run over the whole
// buffer. A power of two >= 8.
constexpr std::size_t kStageBlock = 1024;

// The bit-reversal permutation as the swap pairs (i < j) the in-place pass
// applies, for sizes below kTiledReversalMin only, and the per-stage
// twiddles (stages concatenated: len = 8, 16, ..., n; 64-byte aligned,
// since the SIMD butterfly kernels stream them every transform). Shared by
// every plan that runs size n.
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

// The low `bits` bits of x in reverse order.
constexpr std::size_t reverse_bits(std::size_t x, unsigned bits) {
  std::size_t r = 0;
  for (unsigned i = 0; i < bits; ++i, x >>= 1) r = (r << 1) | (x & 1);
  return r;
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

// In-place bit reversal of n = 2^k >= 2^(2 * kTileBits) points, one pair of
// tiles at a time. Split an index into (a | b | c), where a and c have
// kTileBits bits: the element moves to (rev c | rev b | rev a). For a fixed
// b the elements form a tile of kTile rows (a) of kTile contiguous points
// (c), and they all land in the tile at rev b, transposed and reversed on
// both axes. Tiles b and rev b are exchanged through a stack buffer, so
// every access to the buffer being permuted is a contiguous run of kTile
// points.
void tiled_bit_reverse(Complex* d, std::size_t n) {
  static constexpr auto rev = [] {
    std::array<std::uint8_t, kTile> r{};
    for (std::size_t i = 0; i < kTile; ++i) {
      r[i] = static_cast<std::uint8_t>(reverse_bits(i, kTileBits));
    }
    return r;
  }();
  const auto mid_bits =
      static_cast<unsigned>(std::countr_zero(n)) - 2 * kTileBits;
  const std::size_t stride = n >> kTileBits;  // from row a to row a + 1
  alignas(64) Complex buf[kTile][kTile];
  for (std::size_t b = 0; b < (std::size_t{1} << mid_bits); ++b) {
    const std::size_t rb = reverse_bits(b, mid_bits);
    if (rb < b) continue;  // exchanged when b was rb
    Complex* tile = d + (b << kTileBits);
    if (rb == b) {
      for (std::size_t a = 0; a < kTile; ++a) {
        for (std::size_t c = 0; c < kTile; ++c) {
          buf[a][c] = tile[a * stride + c];
        }
      }
    } else {
      // Tile b, permuted, becomes tile rb; tile rb's old rows land in buf.
      for (std::size_t a = 0; a < kTile; ++a) {
        for (std::size_t c = 0; c < kTile; ++c) {
          buf[rev[c]][rev[a]] = tile[a * stride + c];
        }
      }
      Complex* mirror = d + (rb << kTileBits);
      for (std::size_t a = 0; a < kTile; ++a) {
        for (std::size_t c = 0; c < kTile; ++c) {
          std::swap(mirror[a * stride + c], buf[a][c]);
        }
      }
    }
    for (std::size_t a = 0; a < kTile; ++a) {
      for (std::size_t c = 0; c < kTile; ++c) {
        tile[a * stride + c] = buf[rev[c]][rev[a]];
      }
    }
  }
}

// Radix-2 pass over a power-of-two buffer of the tables' size.
void run_pow2(std::span<Complex> data, const Pow2Tables& tables,
              bool inverse) {
  const std::size_t n = data.size();
  Complex* d = data.data();
  if (n >= kTiledReversalMin) {
    tiled_bit_reverse(d, n);
  } else {
    const std::vector<std::size_t>& bitrev = tables.bitrev;
    for (std::size_t p = 0; p + 1 < bitrev.size(); p += 2) {
      std::swap(d[bitrev[p]], d[bitrev[p + 1]]);
    }
  }

  // Blocking changes the order the butterflies run in, not their operands
  // or operations, so it changes no bit. The len = 2 and len = 4 stages
  // have multiplication-free twiddles (1 and ∓i) and run fused through one
  // dispatched kernel; the remaining stages read twiddles from the table
  // through another.
  const simd::Ops& ops = simd::ops();
  const Complex* tw = tables.twiddles.data();
  const std::size_t block = std::min(n, kStageBlock);
  for (std::size_t i = 0; i < n; i += block) {
    ops.fft_stage2_4(d + i, block, inverse);
    ops.fft_stages(d + i, block, 8, tw, inverse);
  }
  ops.fft_stages(d, n, 2 * block, tw, inverse);

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) d[i] *= inv_n;
  }
}

// The packed input of one real transform: n/2 points for an even size, n
// for an odd one. Per thread, since plans are shared; it only grows.
std::span<Complex> packed_scratch(std::size_t n) {
  thread_local AlignedVector<Complex> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return {buffer.data(), n};
}

}  // namespace

Pow2Tables::Pow2Tables(std::size_t n) {
  // Swap pairs, so the hot loop touches each pair exactly once. Larger
  // sizes reverse tile by tile and need no table.
  if (n < kTiledReversalMin) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) {
        bitrev.push_back(i);
        bitrev.push_back(j);
      }
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

// The Bluestein form of an n-point DFT: a length-m circular convolution
// with the chirp, run on m's radix-2 tables.
struct FftPlan::Bluestein {
  explicit Bluestein(std::size_t n);

  std::size_t m;                           ///< next_pow2(2n - 1) work size
  std::shared_ptr<const Pow2Tables> pow2;  ///< m-point radix-2 tables
  AlignedVector<Complex> chirp;            ///< w[k] = exp(-i*pi*k^2/n)
  AlignedVector<Complex> bspec;            ///< forward FFT of the kernel b
};

FftPlan::Bluestein::Bluestein(std::size_t n)
    : m(next_pow2(2 * n - 1)), pow2(shared_pow2_tables(m)) {
  // Cache the chirp w[k] = exp(-i*pi*k^2/n) and the forward FFT of the
  // convolution kernel b[k] = conj(w[|k|]).
  chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n avoids precision loss for large k.
    const auto k2 = static_cast<double>((k * k) % (2 * n));
    const double angle = -std::numbers::pi * k2 / static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  bspec.assign(m, Complex(0.0, 0.0));
  bspec[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    bspec[k] = bspec[m - k] = std::conj(chirp[k]);
  }
  run_pow2(bspec, *pow2, false);
}

FftPlan::FftPlan(std::size_t n) : FftPlan(n, /*build_real=*/true) {}

FftPlan::FftPlan(std::size_t n, bool build_real) : n_(n) {
  VIBGUARD_REQUIRE(n_ > 0, "FFT plan size must be positive");
  if (is_pow2(n_)) pow2_ = shared_pow2_tables(n_);

  if (build_real && n_ % 2 == 0) {
    const std::size_t h = n_ / 2;
    half_ = std::unique_ptr<FftPlan>(new FftPlan(h, /*build_real=*/false));
    rtwiddle_.resize(h + 1);
    for (std::size_t k = 0; k <= h; ++k) rtwiddle_[k] = unit_root(k, n_);
  }
}

FftPlan::~FftPlan() = default;

const FftPlan::Bluestein& FftPlan::bluestein() const {
  std::call_once(bluestein_once_,
                 [this] { bluestein_ = std::make_unique<Bluestein>(n_); });
  return *bluestein_;
}

void FftPlan::transform(std::span<Complex> data, bool inverse) const {
  VIBGUARD_REQUIRE(data.size() == n_, "buffer size must match plan size");
  if (pow2_ != nullptr) {
    run_pow2(data, *pow2_, inverse);
    return;
  }

  // Bluestein via the cached chirp. The inverse transform reuses the
  // forward chirp through DFT^-1(x) = conj(DFT(conj(x))) / n.
  const Bluestein& b = bluestein();
  if (inverse) {
    for (Complex& x : data) x = std::conj(x);
  }
  // One buffer per thread serves every Bluestein plan on it: a transform
  // never nests another Bluestein transform. It only grows, so plans of
  // alternating sizes never refill it.
  thread_local AlignedVector<Complex> scratch;
  if (scratch.size() < b.m) scratch.resize(b.m);
  const std::span<Complex> work(scratch.data(), b.m);
  std::fill(work.begin() + static_cast<std::ptrdiff_t>(n_), work.end(),
            Complex(0.0, 0.0));
  const simd::Ops& ops = simd::ops();
  ops.complex_multiply_to(work.data(), data.data(), b.chirp.data(), n_);
  run_pow2(work, *b.pow2, false);
  ops.complex_multiply_to(work.data(), work.data(), b.bspec.data(), b.m);
  run_pow2(work, *b.pow2, true);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      data[k] = std::conj(work[k] * b.chirp[k]) * inv_n;
    }
  } else {
    for (std::size_t k = 0; k < n_; ++k) data[k] = work[k] * b.chirp[k];
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
    const std::span<Complex> z = packed_scratch(n_);
    for (std::size_t i = 0; i < n_; ++i) z[i] = Complex(in[i], 0.0);
    transform(z, false);
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = z[k];
    return;
  }

  // Pack adjacent real samples into one complex sequence of half length,
  // transform, then split the even/odd sub-spectra by conjugate symmetry:
  //   X[k] = E[k] + exp(-2*pi*i*k/n) * O[k].
  const std::size_t h = n_ / 2;
  const std::span<Complex> z = packed_scratch(h);
  for (std::size_t j = 0; j < h; ++j) z[j] = Complex(in[2 * j], in[2 * j + 1]);
  half_->transform(z, false);

  const Complex z0 = z[0];
  out[0] = Complex(z0.real() + z0.imag(), 0.0);
  out[h] = Complex(z0.real() - z0.imag(), 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zc = std::conj(z[h - k]);
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

void FftPlan::packed_power(std::span<Complex> packed, std::span<double> out,
                           double norm2) const {
  const std::size_t h = n_ / 2;
  half_->transform(packed, false);
  const Complex z0 = packed[0];
  const double x0 = z0.real() + z0.imag();
  const double xh = z0.real() - z0.imag();
  out[0] = x0 * x0 * norm2;
  out[h] = xh * xh * norm2;
  simd::ops().rfft_split_power(packed.data(), rtwiddle_.data(), h, norm2,
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
    const std::span<Complex> packed = packed_scratch(n_ / 2);
    std::memcpy(reinterpret_cast<double*>(packed.data()), in.data(),
                n_ * sizeof(double));
    packed_power(packed, out, norm2);
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
    const std::span<Complex> packed = packed_scratch(n_ / 2);
    simd::multiply(in, window, reinterpret_cast<double*>(packed.data()), n_);
    packed_power(packed, out, norm2);
    return;
  }
  thread_local std::vector<double> frame;
  frame.resize(n_);
  simd::multiply(in, window, frame.data(), n_);
  power(frame, out);
}

const FftPlan& get_plan(std::size_t n) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t, std::unique_ptr<const FftPlan>>
      plans;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& plan = plans[n];
  if (plan == nullptr) plan = std::make_unique<const FftPlan>(n);
  return *plan;
}

}  // namespace vibguard::dsp
