// AVX2+FMA kernel implementations. Compiled as the only translation unit
// with -mavx2 -mfma (and -ffp-contract=off so scalar tail loops round
// exactly like the scalar reference); entered only after cpuid confirms
// both features.
//
// Lane discipline: the elementwise kernels (multiply, butterfly_stage,
// fft_stage2_4, fft_stages, complex_multiply_to, rfft_split_power,
// linear_interp) evaluate per-output
// expressions with the same operations in the same order as the scalar
// kernels — multiplication/addition operand swaps only where IEEE-754
// results are bitwise unchanged — so they are bit-identical to scalar. The
// reductions (dot, dot_reverse, pearson_moments) use 4-lane FMA
// accumulators and differ from scalar by reassociation only.
#include "dsp/simd.hpp"

#if VIBGUARD_SIMD_AVX2

#include <immintrin.h>

#include <cstddef>

namespace vibguard::dsp::simd::avx2 {
namespace {

// Two complex<double> per __m256d: [re0 im0 re1 im1].
// Textbook complex product per lane-pair:
//   re = xr*wr - xi*wi, im = xi*wr + xr*wi
inline __m256d cmul(__m256d x, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);          // [wr0 wr0 wr1 wr1]
  const __m256d wi = _mm256_permute_pd(w, 0xF);     // [wi0 wi0 wi1 wi1]
  const __m256d xs = _mm256_permute_pd(x, 0x5);     // [xi0 xr0 xi1 xr1]
  return _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi));
}

// Sign mask that conjugates both packed complexes (negates lanes 1 and 3).
inline __m256d conj_mask() { return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); }

inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

void multiply(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void butterfly_stage(Complex* lo, Complex* hi, const Complex* tw,
                     std::size_t half, bool inverse) {
  double* plo = reinterpret_cast<double*>(lo);
  double* phi = reinterpret_cast<double*>(hi);
  const double* ptw = reinterpret_cast<const double*>(tw);
  const __m256d cm = conj_mask();
  std::size_t j = 0;
  for (; j + 4 <= half; j += 4) {
    __m256d w0 = _mm256_loadu_pd(ptw + 2 * j);
    __m256d w1 = _mm256_loadu_pd(ptw + 2 * j + 4);
    if (inverse) {
      w0 = _mm256_xor_pd(w0, cm);
      w1 = _mm256_xor_pd(w1, cm);
    }
    const __m256d v0 = cmul(_mm256_loadu_pd(phi + 2 * j), w0);
    const __m256d v1 = cmul(_mm256_loadu_pd(phi + 2 * j + 4), w1);
    const __m256d u0 = _mm256_loadu_pd(plo + 2 * j);
    const __m256d u1 = _mm256_loadu_pd(plo + 2 * j + 4);
    _mm256_storeu_pd(plo + 2 * j, _mm256_add_pd(u0, v0));
    _mm256_storeu_pd(plo + 2 * j + 4, _mm256_add_pd(u1, v1));
    _mm256_storeu_pd(phi + 2 * j, _mm256_sub_pd(u0, v0));
    _mm256_storeu_pd(phi + 2 * j + 4, _mm256_sub_pd(u1, v1));
  }
  for (; j + 2 <= half; j += 2) {
    __m256d w = _mm256_loadu_pd(ptw + 2 * j);
    if (inverse) w = _mm256_xor_pd(w, cm);
    const __m256d v = cmul(_mm256_loadu_pd(phi + 2 * j), w);
    const __m256d u = _mm256_loadu_pd(plo + 2 * j);
    _mm256_storeu_pd(plo + 2 * j, _mm256_add_pd(u, v));
    _mm256_storeu_pd(phi + 2 * j, _mm256_sub_pd(u, v));
  }
  if (j < half) {
    scalar::butterfly_stage(lo + j, hi + j, tw + j, half - j, inverse);
  }
}

void fft_stages(Complex* d, std::size_t n, std::size_t first_len,
                const Complex* tw, bool inverse) {
  // Stages run fused in pairs (radix-2^2 blocking): stage `len` and stage
  // `2*len` butterflies are computed in registers before storing, halving
  // the memory round-trips. Per element this is exactly the scalar
  // arithmetic in the scalar stage order — only the intermediate store/load
  // between the two stages is elided — so the result stays bit-identical.
  const __m256d cm = conj_mask();
  std::size_t len = first_len;
  while (len <= n) {
    const std::size_t half = len / 2;
    const Complex* stw = tw + (half - 4);  // this stage's twiddles
    if (2 * len <= n) {
      const std::size_t len2 = 2 * len;
      const double* ptw1 = reinterpret_cast<const double*>(stw);
      const double* ptw2 = reinterpret_cast<const double*>(stw + half);
      for (std::size_t i = 0; i < n; i += len2) {
        double* p = reinterpret_cast<double*>(d + i);
        // half >= 4 and a power of two here, so the j loop has no tail.
        for (std::size_t j = 0; j + 2 <= half; j += 2) {
          __m256d w1 = _mm256_loadu_pd(ptw1 + 2 * j);
          __m256d w2a = _mm256_loadu_pd(ptw2 + 2 * j);
          __m256d w2b = _mm256_loadu_pd(ptw2 + 2 * (j + half));
          if (inverse) {
            w1 = _mm256_xor_pd(w1, cm);
            w2a = _mm256_xor_pd(w2a, cm);
            w2b = _mm256_xor_pd(w2b, cm);
          }
          const __m256d alo = _mm256_loadu_pd(p + 2 * j);
          const __m256d ahi = _mm256_loadu_pd(p + 2 * (j + half));
          const __m256d blo = _mm256_loadu_pd(p + 2 * (j + len));
          const __m256d bhi = _mm256_loadu_pd(p + 2 * (j + len + half));
          // Stage `len` on both sub-blocks.
          const __m256d va = cmul(ahi, w1);
          const __m256d vb = cmul(bhi, w1);
          const __m256d a0 = _mm256_add_pd(alo, va);
          const __m256d a1 = _mm256_sub_pd(alo, va);
          const __m256d b0 = _mm256_add_pd(blo, vb);
          const __m256d b1 = _mm256_sub_pd(blo, vb);
          // Stage `2*len`: lo halves pair up, hi halves pair up.
          const __m256d v0 = cmul(b0, w2a);
          const __m256d v1 = cmul(b1, w2b);
          _mm256_storeu_pd(p + 2 * j, _mm256_add_pd(a0, v0));
          _mm256_storeu_pd(p + 2 * (j + len), _mm256_sub_pd(a0, v0));
          _mm256_storeu_pd(p + 2 * (j + half), _mm256_add_pd(a1, v1));
          _mm256_storeu_pd(p + 2 * (j + len + half), _mm256_sub_pd(a1, v1));
        }
      }
      len <<= 2;
    } else {
      for (std::size_t i = 0; i < n; i += len) {
        butterfly_stage(d + i, d + i + half, stw, half, inverse);
      }
      len <<= 1;
    }
  }
}

void fft_stage2_4(Complex* d, std::size_t n, bool inverse) {
  if (n < 4) {
    scalar::fft_stage2_4(d, n, inverse);
    return;
  }
  double* pd = reinterpret_cast<double*>(d);
  // len-4 stage twiddle is -i (forward) / +i (inverse): a re/im swap with
  // one sign flip. Negating via XOR matches the scalar code's negation
  // bit-for-bit.
  const __m256d v1_sign = inverse ? _mm256_set_pd(0.0, -0.0, 0.0, 0.0)
                                  : _mm256_set_pd(-0.0, 0.0, 0.0, 0.0);
  for (std::size_t i = 0; i < n; i += 4) {
    const __m256d a = _mm256_loadu_pd(pd + 2 * i);      // [c0 c1]
    const __m256d b = _mm256_loadu_pd(pd + 2 * i + 4);  // [c2 c3]
    // len-2 butterflies within each pair: [x y] -> [x+y, x-y].
    const __m256d aswap = _mm256_permute2f128_pd(a, a, 0x01);
    const __m256d bswap = _mm256_permute2f128_pd(b, b, 0x01);
    const __m256d t =
        _mm256_permute2f128_pd(_mm256_add_pd(a, aswap),
                               _mm256_sub_pd(a, aswap), 0x20);
    const __m256d u =
        _mm256_permute2f128_pd(_mm256_add_pd(b, bswap),
                               _mm256_sub_pd(b, bswap), 0x20);
    // len-4: v = [u0, (∓i)*u1]; the swap moves im/re of u1 into place.
    const __m256d uswap = _mm256_permute_pd(u, 0x5);
    const __m256d v =
        _mm256_xor_pd(_mm256_blend_pd(u, uswap, 0b1100), v1_sign);
    _mm256_storeu_pd(pd + 2 * i, _mm256_add_pd(t, v));
    _mm256_storeu_pd(pd + 2 * i + 4, _mm256_sub_pd(t, v));
  }
}

void complex_multiply_to(Complex* out, const Complex* a, const Complex* b,
                         std::size_t n) {
  double* po = reinterpret_cast<double*>(out);
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm256_storeu_pd(po + 2 * i, cmul(_mm256_loadu_pd(pa + 2 * i),
                                      _mm256_loadu_pd(pb + 2 * i)));
  }
  if (i < n) scalar::complex_multiply_to(out + i, a + i, b + i, n - i);
}

void rfft_split_power(const Complex* z, const Complex* rtw, std::size_t h,
                      double norm2, double* out) {
  const double* pz = reinterpret_cast<const double*>(z);
  const double* ptw = reinterpret_cast<const double*>(rtw);
  const __m256d cm = conj_mask();
  const __m256d halfv = _mm256_set1_pd(0.5);
  // The odd-part twiddle (0, -0.5) packed for both lanes.
  const __m256d w1 = _mm256_set_pd(-0.5, 0.0, -0.5, 0.0);
  const __m256d n2 = _mm256_set1_pd(norm2);
  std::size_t k = 1;
  for (; k + 4 <= h; k += 4) {
    const __m256d zk0 = _mm256_loadu_pd(pz + 2 * k);
    const __m256d zk1 = _mm256_loadu_pd(pz + 2 * (k + 2));
    __m256d zc0 = _mm256_loadu_pd(pz + 2 * (h - k - 1));
    __m256d zc1 = _mm256_loadu_pd(pz + 2 * (h - k - 3));
    zc0 = _mm256_xor_pd(_mm256_permute2f128_pd(zc0, zc0, 0x01), cm);
    zc1 = _mm256_xor_pd(_mm256_permute2f128_pd(zc1, zc1, 0x01), cm);
    const __m256d even0 = _mm256_mul_pd(halfv, _mm256_add_pd(zk0, zc0));
    const __m256d even1 = _mm256_mul_pd(halfv, _mm256_add_pd(zk1, zc1));
    const __m256d odd0 = cmul(_mm256_sub_pd(zk0, zc0), w1);
    const __m256d odd1 = cmul(_mm256_sub_pd(zk1, zc1), w1);
    const __m256d x0 =
        _mm256_add_pd(even0, cmul(odd0, _mm256_loadu_pd(ptw + 2 * k)));
    const __m256d x1 =
        _mm256_add_pd(even1, cmul(odd1, _mm256_loadu_pd(ptw + 2 * (k + 2))));
    const __m256d sq0 = _mm256_mul_pd(x0, x0);
    const __m256d sq1 = _mm256_mul_pd(x1, x1);
    // hadd interleaves the four bins as [k, k+2, k+1, k+3]; permute back to
    // ascending order for one packed store.
    const __m256d bins = _mm256_permute4x64_pd(_mm256_hadd_pd(sq0, sq1),
                                               _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out + k, _mm256_mul_pd(bins, n2));
  }
  for (; k + 2 <= h; k += 2) {
    const __m256d zk = _mm256_loadu_pd(pz + 2 * k);
    // z[h-k], z[h-k-1] loaded forward then lane-swapped into descending
    // order so lane pair p holds conj(z[h - (k+p)]).
    __m256d zc = _mm256_loadu_pd(pz + 2 * (h - k - 1));
    zc = _mm256_permute2f128_pd(zc, zc, 0x01);
    zc = _mm256_xor_pd(zc, cm);
    const __m256d even = _mm256_mul_pd(halfv, _mm256_add_pd(zk, zc));
    const __m256d odd = cmul(_mm256_sub_pd(zk, zc), w1);
    const __m256d x =
        _mm256_add_pd(even, cmul(odd, _mm256_loadu_pd(ptw + 2 * k)));
    const __m256d sq = _mm256_mul_pd(x, x);
    // hadd pairs re^2+im^2 within each 128-bit lane.
    const __m256d p = _mm256_mul_pd(_mm256_hadd_pd(sq, sq), n2);
    out[k] = _mm256_cvtsd_f64(p);
    out[k + 1] = _mm_cvtsd_f64(_mm256_extractf128_pd(p, 1));
  }
  for (; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zc = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    const Complex x = even + rtw[k] * odd;
    out[k] = (x.real() * x.real() + x.imag() * x.imag()) * norm2;
  }
}

double dot(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double dot_reverse(const double* taps, const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d vt = _mm256_loadu_pd(taps + t);
    // x[-t-3..-t] loaded ascending, then reversed to match tap order.
    __m256d vx = _mm256_loadu_pd(x - t - 3);
    vx = _mm256_permute4x64_pd(vx, _MM_SHUFFLE(0, 1, 2, 3));
    acc = _mm256_fmadd_pd(vt, vx, acc);
  }
  double s = hsum(acc);
  for (; t < n; ++t) s += taps[t] * x[-static_cast<std::ptrdiff_t>(t)];
  return s;
}

void linear_interp(const double* in, std::size_t in_size, double ratio,
                   double* out, std::size_t n) {
  const __m256d vratio = _mm256_set1_pd(ratio);
  const __m256d ones = _mm256_set1_pd(1.0);
  // floor(pos) -> int64 lanes via the 2^52 mantissa trick (indices are far
  // below 2^51).
  const __m256d magic = _mm256_set1_pd(4503599627370496.0);  // 2^52
  const __m256i magic_bits = _mm256_castpd_si256(magic);
  const __m256i vsize = _mm256_set1_epi64x(static_cast<long long>(in_size));
  const __m256i one64 = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d idx = _mm256_set_pd(
        static_cast<double>(i + 3), static_cast<double>(i + 2),
        static_cast<double>(i + 1), static_cast<double>(i));
    const __m256d pos = _mm256_mul_pd(idx, vratio);
    const __m256d flo = _mm256_floor_pd(pos);
    const __m256d frac = _mm256_sub_pd(pos, flo);
    const __m256i lo = _mm256_sub_epi64(
        _mm256_castpd_si256(_mm256_add_pd(flo, magic)), magic_bits);
    const __m256i lop1 = _mm256_add_epi64(lo, one64);
    // hi = lo + 1 where lo + 1 < in_size, else lo (cmp mask is -1/0).
    const __m256i hi =
        _mm256_sub_epi64(lo, _mm256_cmpgt_epi64(vsize, lop1));
    const __m256d vlo = _mm256_i64gather_pd(in, lo, 8);
    const __m256d vhi = _mm256_i64gather_pd(in, hi, 8);
    const __m256d r =
        _mm256_add_pd(_mm256_mul_pd(vlo, _mm256_sub_pd(ones, frac)),
                      _mm256_mul_pd(vhi, frac));
    _mm256_storeu_pd(out + i, r);
  }
  // Tail keeps the global output index: pos depends on i, so the generic
  // scalar kernel (which restarts at index 0) cannot be reused here.
  for (; i < n; ++i) {
    const double pos = static_cast<double>(i) * ratio;
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = lo + 1 < in_size ? lo + 1 : lo;
    const double frac = pos - static_cast<double>(lo);
    out[i] = in[lo] * (1.0 - frac) + in[hi] * frac;
  }
}

PearsonMoments pearson_moments(const double* a, const double* b,
                               std::size_t n) {
  __m256d sa = _mm256_setzero_pd();
  __m256d sb = _mm256_setzero_pd();
  __m256d saa = _mm256_setzero_pd();
  __m256d sbb = _mm256_setzero_pd();
  __m256d sab = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    sa = _mm256_add_pd(sa, va);
    sb = _mm256_add_pd(sb, vb);
    saa = _mm256_fmadd_pd(va, va, saa);
    sbb = _mm256_fmadd_pd(vb, vb, sbb);
    sab = _mm256_fmadd_pd(va, vb, sab);
  }
  PearsonMoments m;
  m.sa = hsum(sa);
  m.sb = hsum(sb);
  m.saa = hsum(saa);
  m.sbb = hsum(sbb);
  m.sab = hsum(sab);
  for (; i < n; ++i) {
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

}  // namespace

const Ops kOps = {
    .level = Level::kAvx2,
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

}  // namespace vibguard::dsp::simd::avx2

#endif  // VIBGUARD_SIMD_AVX2
