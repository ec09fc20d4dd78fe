// AVX-512F instantiation of the banded-butterfly microkernels.
//
// Compiled only when the top-level QS_ENABLE_SIMD avx512f probe passed; the
// table is only selected when the running CPU reports avx512f.  Like the
// AVX2 translation unit, this deliberately avoids FMA: separate vmulpd +
// vaddpd reproduce the scalar two-rounding expression m00*t1 + m01*t2, the
// TU is built without the FMA ISA flag and with -ffp-contract=off, and the
// result is bit-identical to the scalar table and the autovectorised banded
// loops.
#include "transforms/sv_microkernel.hpp"

#if defined(QS_HAVE_SV_AVX512_KERNELS)

#include <immintrin.h>

namespace qs::transforms {
namespace {

inline __attribute__((always_inline)) __m512d muladd8(__m512d a, __m512d x,
                                                      __m512d b, __m512d y) {
  return _mm512_add_pd(_mm512_mul_pd(a, x), _mm512_mul_pd(b, y));
}

void sv_butterfly_span_avx512(double* lo, double* hi, std::size_t cnt,
                              Factor2 f) {
  const __m512d m00 = _mm512_set1_pd(f.m00);
  const __m512d m01 = _mm512_set1_pd(f.m01);
  const __m512d m10 = _mm512_set1_pd(f.m10);
  const __m512d m11 = _mm512_set1_pd(f.m11);
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    const __m512d t1 = _mm512_loadu_pd(lo + i);
    const __m512d t2 = _mm512_loadu_pd(hi + i);
    _mm512_storeu_pd(lo + i, muladd8(m00, t1, m01, t2));
    _mm512_storeu_pd(hi + i, muladd8(m10, t1, m11, t2));
  }
  for (; i < cnt; ++i) {
    const double t1 = lo[i];
    const double t2 = hi[i];
    lo[i] = f.m00 * t1 + f.m01 * t2;
    hi[i] = f.m10 * t1 + f.m11 * t2;
  }
}

void sv_butterfly_quad_span_avx512(double* r0, double* r1, double* r2,
                                   double* r3, std::size_t cnt, Factor2 fl,
                                   Factor2 fh) {
  const __m512d l00 = _mm512_set1_pd(fl.m00);
  const __m512d l01 = _mm512_set1_pd(fl.m01);
  const __m512d l10 = _mm512_set1_pd(fl.m10);
  const __m512d l11 = _mm512_set1_pd(fl.m11);
  const __m512d h00 = _mm512_set1_pd(fh.m00);
  const __m512d h01 = _mm512_set1_pd(fh.m01);
  const __m512d h10 = _mm512_set1_pd(fh.m10);
  const __m512d h11 = _mm512_set1_pd(fh.m11);
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    const __m512d a = _mm512_loadu_pd(r0 + i);
    const __m512d b = _mm512_loadu_pd(r1 + i);
    const __m512d c = _mm512_loadu_pd(r2 + i);
    const __m512d d = _mm512_loadu_pd(r3 + i);
    const __m512d ab0 = muladd8(l00, a, l01, b);
    const __m512d ab1 = muladd8(l10, a, l11, b);
    const __m512d cd0 = muladd8(l00, c, l01, d);
    const __m512d cd1 = muladd8(l10, c, l11, d);
    _mm512_storeu_pd(r0 + i, muladd8(h00, ab0, h01, cd0));
    _mm512_storeu_pd(r1 + i, muladd8(h00, ab1, h01, cd1));
    _mm512_storeu_pd(r2 + i, muladd8(h10, ab0, h11, cd0));
    _mm512_storeu_pd(r3 + i, muladd8(h10, ab1, h11, cd1));
  }
  for (; i < cnt; ++i) {
    const double a = r0[i];
    const double b = r1[i];
    const double c = r2[i];
    const double d = r3[i];
    const double ab0 = fl.m00 * a + fl.m01 * b;
    const double ab1 = fl.m10 * a + fl.m11 * b;
    const double cd0 = fl.m00 * c + fl.m01 * d;
    const double cd1 = fl.m10 * c + fl.m11 * d;
    r0[i] = fh.m00 * ab0 + fh.m01 * cd0;
    r1[i] = fh.m00 * ab1 + fh.m01 * cd1;
    r2[i] = fh.m10 * ab0 + fh.m11 * cd0;
    r3[i] = fh.m10 * ab1 + fh.m11 * cd1;
  }
}

inline __attribute__((always_inline)) void sv_bf2_avx512(
    __m512d& a, __m512d& b, __m512d m00, __m512d m01, __m512d m10,
    __m512d m11) {
  const __m512d t = a;
  a = muladd8(m00, t, m01, b);
  b = muladd8(m10, t, m11, b);
}

inline void sv_bf2_tail(double& a, double& b, Factor2 f) {
  const double t = a;
  a = f.m00 * t + f.m01 * b;
  b = f.m10 * t + f.m11 * b;
}

void sv_butterfly_oct_span_avx512(double* p, std::size_t stride,
                                  std::size_t cnt, Factor2 f0, Factor2 f1,
                                  Factor2 f2) {
  const __m512d a00 = _mm512_set1_pd(f0.m00), a01 = _mm512_set1_pd(f0.m01);
  const __m512d a10 = _mm512_set1_pd(f0.m10), a11 = _mm512_set1_pd(f0.m11);
  const __m512d b00 = _mm512_set1_pd(f1.m00), b01 = _mm512_set1_pd(f1.m01);
  const __m512d b10 = _mm512_set1_pd(f1.m10), b11 = _mm512_set1_pd(f1.m11);
  const __m512d c00 = _mm512_set1_pd(f2.m00), c01 = _mm512_set1_pd(f2.m01);
  const __m512d c10 = _mm512_set1_pd(f2.m10), c11 = _mm512_set1_pd(f2.m11);
  double* r0 = p;
  double* r1 = p + stride;
  double* r2 = p + 2 * stride;
  double* r3 = p + 3 * stride;
  double* r4 = p + 4 * stride;
  double* r5 = p + 5 * stride;
  double* r6 = p + 6 * stride;
  double* r7 = p + 7 * stride;
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    __m512d v0 = _mm512_loadu_pd(r0 + i);
    __m512d v1 = _mm512_loadu_pd(r1 + i);
    __m512d v2 = _mm512_loadu_pd(r2 + i);
    __m512d v3 = _mm512_loadu_pd(r3 + i);
    __m512d v4 = _mm512_loadu_pd(r4 + i);
    __m512d v5 = _mm512_loadu_pd(r5 + i);
    __m512d v6 = _mm512_loadu_pd(r6 + i);
    __m512d v7 = _mm512_loadu_pd(r7 + i);
    sv_bf2_avx512(v0, v1, a00, a01, a10, a11);
    sv_bf2_avx512(v2, v3, a00, a01, a10, a11);
    sv_bf2_avx512(v4, v5, a00, a01, a10, a11);
    sv_bf2_avx512(v6, v7, a00, a01, a10, a11);
    sv_bf2_avx512(v0, v2, b00, b01, b10, b11);
    sv_bf2_avx512(v1, v3, b00, b01, b10, b11);
    sv_bf2_avx512(v4, v6, b00, b01, b10, b11);
    sv_bf2_avx512(v5, v7, b00, b01, b10, b11);
    sv_bf2_avx512(v0, v4, c00, c01, c10, c11);
    sv_bf2_avx512(v1, v5, c00, c01, c10, c11);
    sv_bf2_avx512(v2, v6, c00, c01, c10, c11);
    sv_bf2_avx512(v3, v7, c00, c01, c10, c11);
    _mm512_storeu_pd(r0 + i, v0);
    _mm512_storeu_pd(r1 + i, v1);
    _mm512_storeu_pd(r2 + i, v2);
    _mm512_storeu_pd(r3 + i, v3);
    _mm512_storeu_pd(r4 + i, v4);
    _mm512_storeu_pd(r5 + i, v5);
    _mm512_storeu_pd(r6 + i, v6);
    _mm512_storeu_pd(r7 + i, v7);
  }
  for (; i < cnt; ++i) {
    double v0 = r0[i], v1 = r1[i], v2 = r2[i], v3 = r3[i];
    double v4 = r4[i], v5 = r5[i], v6 = r6[i], v7 = r7[i];
    sv_bf2_tail(v0, v1, f0);
    sv_bf2_tail(v2, v3, f0);
    sv_bf2_tail(v4, v5, f0);
    sv_bf2_tail(v6, v7, f0);
    sv_bf2_tail(v0, v2, f1);
    sv_bf2_tail(v1, v3, f1);
    sv_bf2_tail(v4, v6, f1);
    sv_bf2_tail(v5, v7, f1);
    sv_bf2_tail(v0, v4, f2);
    sv_bf2_tail(v1, v5, f2);
    sv_bf2_tail(v2, v6, f2);
    sv_bf2_tail(v3, v7, f2);
    r0[i] = v0;
    r1[i] = v1;
    r2[i] = v2;
    r3[i] = v3;
    r4[i] = v4;
    r5[i] = v5;
    r6[i] = v6;
    r7[i] = v7;
  }
}

void sv_mul_span_avx512(double* y, const double* x, const double* s,
                        std::size_t cnt) {
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_mul_pd(_mm512_loadu_pd(s + i), _mm512_loadu_pd(x + i)));
  }
  for (; i < cnt; ++i) y[i] = s[i] * x[i];
}

void sv_mul_span_inplace_avx512(double* y, const double* s, std::size_t cnt) {
  sv_mul_span_avx512(y, y, s, cnt);
}

void sv_mul_rows_broadcast_avx512(double* y, const double* x, const double* s,
                                  std::size_t rows, std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    const __m512d sr = _mm512_set1_pd(s[r]);
    const double* xr = x + r * m;
    double* yr = y + r * m;
    std::size_t c = 0;
    for (; c + 8 <= m; c += 8) {
      _mm512_storeu_pd(yr + c, _mm512_mul_pd(sr, _mm512_loadu_pd(xr + c)));
    }
    for (; c < m; ++c) yr[c] = s[r] * xr[c];
  }
}

void sv_mul_rows_broadcast_inplace_avx512(double* y, const double* s,
                                          std::size_t rows, std::size_t m) {
  sv_mul_rows_broadcast_avx512(y, y, s, rows, m);
}

constexpr SvKernels kAvx512SvKernels{
    sv_butterfly_span_avx512,     sv_butterfly_quad_span_avx512,
    sv_butterfly_oct_span_avx512, sv_mul_span_avx512,
    sv_mul_span_inplace_avx512,   sv_mul_rows_broadcast_avx512,
    sv_mul_rows_broadcast_inplace_avx512, "avx512",
};

}  // namespace

const SvKernels* sv_avx512_table() {
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx512f")) return &kAvx512SvKernels;
  return nullptr;
#else
  return nullptr;
#endif
}

}  // namespace qs::transforms

#endif  // QS_HAVE_SV_AVX512_KERNELS
