// Portable scalar dispatch target — and the semantic reference for the
// SSE2 table. The reductions run the same four virtual accumulator lanes
// the vector unit uses (4-wide blocks, lane combination pinned to
// (l0 + l2) + (l1 + l3), sequential tail), so SSE2 results are
// bit-identical to this file, not merely close. The library is compiled
// with -ffp-contract=off so no target silently fuses a multiply-add.
#include <cstddef>
#include <cstdint>

#include "simd/kernel_support.hpp"
#include "simd/simd.hpp"

namespace sift::simd {
namespace {

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  double s = detail::combine_lanes(l0, l1, l2, l3);
  for (; i < n; ++i) s += a[i] * b[i];
  return detail::pin_nan(s);
}

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

MinMax min_max_scalar(const double* x, std::size_t n) {
  if (n == 0) return {};
  double mn0 = x[0], mn1 = x[0], mn2 = x[0], mn3 = x[0];
  double mx0 = x[0], mx1 = x[0], mx2 = x[0], mx3 = x[0];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    mn0 = detail::min2(mn0, x[i]);
    mn1 = detail::min2(mn1, x[i + 1]);
    mn2 = detail::min2(mn2, x[i + 2]);
    mn3 = detail::min2(mn3, x[i + 3]);
    mx0 = detail::max2(mx0, x[i]);
    mx1 = detail::max2(mx1, x[i + 1]);
    mx2 = detail::max2(mx2, x[i + 2]);
    mx3 = detail::max2(mx3, x[i + 3]);
  }
  MinMax r;
  r.min = detail::min2(detail::min2(mn0, mn2), detail::min2(mn1, mn3));
  r.max = detail::max2(detail::max2(mx0, mx2), detail::max2(mx1, mx3));
  for (; i < n; ++i) {
    r.min = detail::min2(r.min, x[i]);
    r.max = detail::max2(r.max, x[i]);
  }
  return r;
}

MeanVar mean_var_scalar(const double* x, std::size_t n) {
  if (n == 0) return {};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  double sum = detail::combine_lanes(l0, l1, l2, l3);
  for (; i < n; ++i) sum += x[i];
  const double mean = sum / static_cast<double>(n);

  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - mean;
    const double d1 = x[i + 1] - mean;
    const double d2 = x[i + 2] - mean;
    const double d3 = x[i + 3] - mean;
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double ss = detail::combine_lanes(s0, s1, s2, s3);
  for (; i < n; ++i) {
    const double d = x[i] - mean;
    ss += d * d;
  }
  return {detail::pin_nan(mean),
          detail::pin_nan(ss / static_cast<double>(n))};
}

void scale_shift_scalar(const double* x, const double* shift,
                        const double* scale, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (x[i] - shift[i]) / scale[i];
}

void square_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * x[i];
}

void five_point_derivative_scalar(const double* x, double* out,
                                  std::size_t n) {
  const std::size_t edge = n < 4 ? n : 4;
  detail::derivative_edge(x, out, edge);
  for (std::size_t i = edge; i < n; ++i) {
    out[i] = (2.0 * x[i] + x[i - 1] - x[i - 3] - 2.0 * x[i - 4]) / 8.0;
  }
}

}  // namespace

const Kernels& scalar_kernels() noexcept {
  static constexpr Kernels table = {
      Level::kScalar,
      dot_scalar,
      axpy_scalar,
      min_max_scalar,
      mean_var_scalar,
      scale_shift_scalar,
      square_scalar,
      five_point_derivative_scalar,
      detail::moving_window_integral_impl,
      detail::grid_cells_impl,
      detail::masked_mean_var_impl,
      detail::gather_scale_shift_impl,
  };
  return table;
}

}  // namespace sift::simd
