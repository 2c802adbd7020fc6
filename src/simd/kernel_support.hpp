// Internal helpers shared by both kernel translation units (scalar and
// SSE2). The SSE2 table delegates its scalar edges and tails to these so
// the operation sequence — and therefore the bit pattern of the result —
// is pinned in exactly one place.
//
// Not part of the public API; include simd.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/simd.hpp"

namespace sift::simd {

// Kernel tables, one per translation unit. Only the dispatcher should call
// these; everyone else goes through kernels()/active().
const Kernels& scalar_kernels() noexcept;
#if defined(__x86_64__) || defined(_M_X64)
const Kernels& sse2_kernels() noexcept;
#endif

}  // namespace sift::simd

namespace sift::simd::detail {

/// Scalar twin of the x86 MINPD rule: NaN in either operand, or a tie,
/// selects the *second* operand. Every level funnels min/max through this
/// semantics so NaN/-0.0 propagation is identical across dispatch targets.
inline double min2(double a, double b) noexcept { return a < b ? a : b; }
inline double max2(double a, double b) noexcept { return a > b ? a : b; }

/// Pinned lane-combination order for 4-lane blocked reductions: what
/// adding the SSE2 accumulators {l0, l1} and {l2, l3}, then the two
/// elements, reduces to.
inline double combine_lanes(double l0, double l1, double l2,
                            double l3) noexcept {
  return (l0 + l2) + (l1 + l3);
}

/// Where two NaNs meet in an add, x86 returns the first operand, and the
/// compiler may commute an add — so a reduction's NaN sign would depend on
/// code generation (inf - inf yields -NaN, a NaN input is usually +NaN).
/// Every reduction result passes through here: any NaN becomes the one
/// canonical quiet NaN, at every level.
inline double pin_nan(double v) noexcept {
  return v != v ? std::numeric_limits<double>::quiet_NaN() : v;
}

/// The left edge of the 5-point derivative (indices < 4 clamp taps to
/// x[0]); shared verbatim by every level.
inline void derivative_edge(const double* x, double* out,
                            std::size_t upto) noexcept {
  for (std::size_t i = 0; i < upto; ++i) {
    const double t1 = i >= 1 ? x[i - 1] : x[0];
    const double t3 = i >= 3 ? x[i - 3] : x[0];
    const double t4 = i >= 4 ? x[i - 4] : x[0];
    out[i] = (2.0 * x[i] + t1 - t3 - 2.0 * t4) / 8.0;
  }
}

/// One grid coordinate of the portrait pass: the min-max normalised value
/// (the midpoint 0.5 for a degenerate scale <= 0), scaled by the grid side
/// and truncated after clamping to [0, grid_max], NaN mapping to 0 — the
/// scalar twin of max_pd(v, 0) / min_pd(v, n-1) / cvttpd.
inline std::uint32_t grid_coord(double x, double shift, double scale,
                                double dn, double grid_max) noexcept {
  const double u = scale <= 0.0 ? 0.5 : (x - shift) / scale;
  double c = u * dn;
  c = c > 0.0 ? c : 0.0;  // NaN compares false -> 0
  if (c > grid_max) c = grid_max;
  return static_cast<std::uint32_t>(c);
}

/// The reference grid_cells pass (see simd.hpp). The SSE2 table runs it
/// for degenerate channels and for its tail.
inline void grid_cells_impl(const double* a, const double* b, double shift_a,
                            double scale_a, double shift_b, double scale_b,
                            std::size_t n_grid, std::uint32_t* out,
                            std::size_t n) noexcept {
  const double dn = static_cast<double>(n_grid);
  const double grid_max = static_cast<double>(n_grid - 1);
  const auto side = static_cast<std::uint32_t>(n_grid);
  for (std::size_t t = 0; t < n; ++t) {
    out[t] = grid_coord(a[t], shift_a, scale_a, dn, grid_max) * side +
             grid_coord(b[t], shift_b, scale_b, dn, grid_max);
  }
}

/// Moving-window integration, the one genuinely sequential kernel: the
/// running sum is a loop-carried dependency, so a vector version would
/// have to reassociate the accumulator and break cross-level bit identity.
/// Every dispatch level points at this implementation; the denominator
/// branch is hoisted out of the steady-state loop, which is all the
/// optimisation the dependency chain allows.
inline void moving_window_integral_impl(const double* x, std::size_t window,
                                        double* out, std::size_t n) noexcept {
  double acc = 0.0;
  const std::size_t warm = window - 1 < n ? window - 1 : n;
  for (std::size_t i = 0; i < warm; ++i) {
    acc += x[i];
    out[i] = acc / static_cast<double>(i + 1);
  }
  const double denom = static_cast<double>(window);
  for (std::size_t i = warm; i < n; ++i) {
    acc += x[i];
    if (i >= window) acc -= x[i - window];
    out[i] = acc / denom;
  }
}

/// Masked (selection-indexed) mean/variance, the second genuinely
/// sequential kernel: the columnar trainer uses it to reproduce
/// ml::StandardScaler::fit, whose per-dimension accumulator is a plain
/// sequential sum over rows in dataset order. A blocked 4-lane version
/// would reassociate that sum and the columnar model would no longer be
/// byte-identical to the AoS one — so every dispatch level points here.
/// (The idx-gathered loads would defeat vector load units regardless.)
inline MeanVar masked_mean_var_impl(const double* col, const std::uint32_t* idx,
                                    std::size_t n) noexcept {
  if (n == 0) return {};
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += col[idx[i]];
  const double mean = sum / static_cast<double>(n);
  double ss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = col[idx[i]] - mean;
    ss += d * d;
  }
  return {mean, ss / static_cast<double>(n)};
}

/// Scalar gather + affine + strided scatter; both tables share it (SSE2
/// has no gather, and strided stores leave nothing to vectorise). Each
/// element is one subtract and one divide, so any level is bit-identical.
inline void gather_scale_shift_impl(const double* col, const std::uint32_t* idx,
                                    std::size_t n, double shift, double scale,
                                    double* out,
                                    std::size_t out_stride) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i * out_stride] = (col[idx[i]] - shift) / scale;
  }
}

}  // namespace sift::simd::detail
