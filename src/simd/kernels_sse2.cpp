// SSE2 dispatch target: the four virtual accumulator lanes live in two
// 2-wide registers, {l0, l1} and {l2, l3}. Adding the two registers and
// then the two elements reproduces the pinned (l0 + l2) + (l1 + l3) lane
// combination exactly, so results match the scalar table bit-for-bit.
// SSE2 only — no SSE4.1 instructions — so the table runs on every x86-64
// CPU without a runtime check. Off x86-64 this file compiles to nothing.
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/kernel_support.hpp"
#include "simd/simd.hpp"

namespace sift::simd {
namespace {

inline double hsum_combined(__m128d acc01, __m128d acc23) {
  // {l0 + l2, l1 + l3}, then element 0 + element 1.
  const __m128d pair = _mm_add_pd(acc01, acc23);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double dot_sse2(const double* a, const double* b, std::size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + i),
                                         _mm_loadu_pd(b + i)));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(_mm_loadu_pd(a + i + 2),
                                         _mm_loadu_pd(b + i + 2)));
  }
  double s = hsum_combined(acc01, acc23);
  for (; i < n; ++i) s += a[i] * b[i];
  return detail::pin_nan(s);
}

void axpy_sse2(double a, const double* x, double* y, std::size_t n) {
  const __m128d va = _mm_set1_pd(a);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d r =
        _mm_add_pd(_mm_loadu_pd(y + i), _mm_mul_pd(va, _mm_loadu_pd(x + i)));
    _mm_storeu_pd(y + i, r);
  }
  for (; i < n; ++i) y[i] = y[i] + a * x[i];
}

MinMax min_max_sse2(const double* x, std::size_t n) {
  if (n == 0) return {};
  __m128d mn01 = _mm_set1_pd(x[0]);
  __m128d mn23 = mn01;
  __m128d mx01 = mn01;
  __m128d mx23 = mn01;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d v01 = _mm_loadu_pd(x + i);
    const __m128d v23 = _mm_loadu_pd(x + i + 2);
    mn01 = _mm_min_pd(mn01, v01);
    mn23 = _mm_min_pd(mn23, v23);
    mx01 = _mm_max_pd(mx01, v01);
    mx23 = _mm_max_pd(mx23, v23);
  }
  // {min2(l0, l2), min2(l1, l3)} — MINPD's operand order matches min2.
  const __m128d mn = _mm_min_pd(mn01, mn23);
  const __m128d mx = _mm_max_pd(mx01, mx23);
  MinMax r;
  r.min = detail::min2(_mm_cvtsd_f64(mn),
                       _mm_cvtsd_f64(_mm_unpackhi_pd(mn, mn)));
  r.max = detail::max2(_mm_cvtsd_f64(mx),
                       _mm_cvtsd_f64(_mm_unpackhi_pd(mx, mx)));
  for (; i < n; ++i) {
    r.min = detail::min2(r.min, x[i]);
    r.max = detail::max2(r.max, x[i]);
  }
  return r;
}

MeanVar mean_var_sse2(const double* x, std::size_t n) {
  if (n == 0) return {};
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = _mm_add_pd(acc01, _mm_loadu_pd(x + i));
    acc23 = _mm_add_pd(acc23, _mm_loadu_pd(x + i + 2));
  }
  double sum = hsum_combined(acc01, acc23);
  for (; i < n; ++i) sum += x[i];
  const double mean = sum / static_cast<double>(n);

  const __m128d vmean = _mm_set1_pd(mean);
  __m128d ss01 = _mm_setzero_pd();
  __m128d ss23 = _mm_setzero_pd();
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d d01 = _mm_sub_pd(_mm_loadu_pd(x + i), vmean);
    const __m128d d23 = _mm_sub_pd(_mm_loadu_pd(x + i + 2), vmean);
    ss01 = _mm_add_pd(ss01, _mm_mul_pd(d01, d01));
    ss23 = _mm_add_pd(ss23, _mm_mul_pd(d23, d23));
  }
  double ss = hsum_combined(ss01, ss23);
  for (; i < n; ++i) {
    const double d = x[i] - mean;
    ss += d * d;
  }
  return {detail::pin_nan(mean),
          detail::pin_nan(ss / static_cast<double>(n))};
}

void scale_shift_sse2(const double* x, const double* shift,
                      const double* scale, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d r =
        _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(shift + i)),
                   _mm_loadu_pd(scale + i));
    _mm_storeu_pd(out + i, r);
  }
  for (; i < n; ++i) out[i] = (x[i] - shift[i]) / scale[i];
}

void square_sse2(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(x + i);
    _mm_storeu_pd(out + i, _mm_mul_pd(v, v));
  }
  for (; i < n; ++i) out[i] = x[i] * x[i];
}

void five_point_derivative_sse2(const double* x, double* out, std::size_t n) {
  const std::size_t edge = n < 4 ? n : 4;
  detail::derivative_edge(x, out, edge);
  const __m128d two = _mm_set1_pd(2.0);
  const __m128d eighth = _mm_set1_pd(8.0);
  std::size_t i = edge;
  for (; i + 2 <= n; i += 2) {
    // ((2 x[i] + x[i-1]) - x[i-3]) - 2 x[i-4], matching the scalar
    // left-to-right evaluation order.
    __m128d r = _mm_mul_pd(two, _mm_loadu_pd(x + i));
    r = _mm_add_pd(r, _mm_loadu_pd(x + i - 1));
    r = _mm_sub_pd(r, _mm_loadu_pd(x + i - 3));
    r = _mm_sub_pd(r, _mm_mul_pd(two, _mm_loadu_pd(x + i - 4)));
    _mm_storeu_pd(out + i, _mm_div_pd(r, eighth));
  }
  for (; i < n; ++i) {
    out[i] = (2.0 * x[i] + x[i - 1] - x[i - 3] - 2.0 * x[i - 4]) / 8.0;
  }
}

// Two samples per step: both channels normalised with the same IEEE ops
// as the reference, MAXPD(v, 0) sending NaN to 0 like grid_coord, then
// i * n + j. SSE2 multiplies 32-bit lanes only in the even positions
// (PMULUDQ), so i is spread to lanes 0 and 2 and the products gathered
// back; i * n < 2^32, so their high halves are zero.
inline __m128i grid_pair(__m128d a, __m128d b, __m128d sa, __m128d ca,
                         __m128d sb, __m128d cb, __m128d dn, __m128d top,
                         __m128i side) {
  const __m128d zero = _mm_setzero_pd();
  const __m128d x = _mm_mul_pd(_mm_div_pd(_mm_sub_pd(a, sa), ca), dn);
  const __m128d y = _mm_mul_pd(_mm_div_pd(_mm_sub_pd(b, sb), cb), dn);
  const __m128i i = _mm_cvttpd_epi32(_mm_min_pd(_mm_max_pd(x, zero), top));
  const __m128i j = _mm_cvttpd_epi32(_mm_min_pd(_mm_max_pd(y, zero), top));
  constexpr int kEvenOdd = _MM_SHUFFLE(3, 1, 2, 0);
  const __m128i rows = _mm_shuffle_epi32(
      _mm_mul_epu32(_mm_shuffle_epi32(i, kEvenOdd), side), kEvenOdd);
  return _mm_add_epi32(rows, j);  // {k0, k1, 0, 0}
}

void grid_cells_sse2(const double* a, const double* b, double shift_a,
                     double scale_a, double shift_b, double scale_b,
                     std::size_t n_grid, std::uint32_t* out, std::size_t n) {
  std::size_t t = 0;
  if (scale_a > 0.0 && scale_b > 0.0) {
    const __m128d sa = _mm_set1_pd(shift_a);
    const __m128d ca = _mm_set1_pd(scale_a);
    const __m128d sb = _mm_set1_pd(shift_b);
    const __m128d cb = _mm_set1_pd(scale_b);
    const __m128d dn = _mm_set1_pd(static_cast<double>(n_grid));
    const __m128d top = _mm_set1_pd(static_cast<double>(n_grid - 1));
    const __m128i side = _mm_set1_epi32(static_cast<int>(n_grid));
    for (; t + 4 <= n; t += 4) {
      const __m128i lo = grid_pair(_mm_loadu_pd(a + t), _mm_loadu_pd(b + t),
                                   sa, ca, sb, cb, dn, top, side);
      const __m128i hi =
          grid_pair(_mm_loadu_pd(a + t + 2), _mm_loadu_pd(b + t + 2), sa, ca,
                    sb, cb, dn, top, side);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + t),
                       _mm_unpacklo_epi64(lo, hi));
    }
  }
  // Degenerate channels (a flatline) and the tail take the reference path.
  detail::grid_cells_impl(a + t, b + t, shift_a, scale_a, shift_b, scale_b,
                          n_grid, out + t, n - t);
}

}  // namespace

const Kernels& sse2_kernels() noexcept {
  static constexpr Kernels table = {
      Level::kSse2,
      dot_sse2,
      axpy_sse2,
      min_max_sse2,
      mean_var_sse2,
      scale_shift_sse2,
      square_sse2,
      five_point_derivative_sse2,
      detail::moving_window_integral_impl,
      grid_cells_sse2,
      detail::masked_mean_var_impl,
      detail::gather_scale_shift_impl,
  };
  return table;
}

}  // namespace sift::simd

#endif  // x86_64
