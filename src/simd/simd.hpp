// Dispatched SIMD kernel layer for the sample -> verdict hot path.
//
// Every arithmetic primitive the detection pipeline leans on (dot products,
// axpy updates, min/max scans, mean/variance, the fused scaler transform,
// squaring, the Pan-Tompkins FIR derivative and moving-window integration,
// and the portrait's fused normalise-and-bin pass that feeds the matrix
// features) is provided here as a table of kernels. A build carries at most
// one vector table: SSE2 on x86-64 (the ISA baseline, so no runtime CPU
// detection), none elsewhere; the portable scalar table is always present
// and is the semantic reference. The vector table is the default; the
// SIFT_SIMD_LEVEL environment variable (scalar|sse2) overrides it for
// testing and field diagnosis.
//
// Determinism contract — the reason this layer can sit under a detector
// whose verdicts must not drift: every kernel uses a *fixed blocked
// reduction order* of four virtual accumulator lanes. The scalar table
// runs the four lanes in plain code; SSE2 runs them as two 2-wide
// registers. Lane combination is pinned to
//   (l0 + l2) + (l1 + l3),
// fused-multiply-add contraction is disabled for the whole library, min/max
// follows the x86 MINPD/MAXPD "return the second operand" rule at every
// level, and a reduction whose result is NaN returns one canonical quiet
// NaN (which NaN an add propagates depends on operand order, and the
// compiler may commute an add). So every level produces BIT-IDENTICAL
// results on identical input. tests/simd_test.cpp enforces this bitwise
// across all levels the build registers; the golden-cohort suite pins the
// resulting detector verdicts.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

namespace sift::simd {

/// Dispatch targets, ordered by preference (higher = faster).
enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
};

const char* to_string(Level level) noexcept;

/// Levels this build registers, best first: {sse2, scalar} on x86-64,
/// {scalar} elsewhere. Fixed at compile time.
std::span<const Level> available_levels() noexcept;

/// The level the dispatched kernels currently run at. Resolved on first
/// use: SIFT_SIMD_LEVEL if set to an available level, otherwise the best
/// available one.
Level active_level() noexcept;

/// Forces the dispatch table to @p level. Returns false (and changes
/// nothing) if the build does not register it. Intended for tests and
/// benchmarks; not thread-safe against in-flight kernel calls.
bool set_active_level(Level level) noexcept;

/// Largest grid side grid_cells can index: n^2 cells fit a 32-bit index.
inline constexpr std::size_t kMaxGridSide = 0xFFFF;

struct MinMax {
  double min = 0.0;
  double max = 0.0;
};

struct MeanVar {
  double mean = 0.0;
  double variance = 0.0;  ///< population variance (divides by N)
};

/// One dispatch target: raw-pointer kernels, all safe for n == 0.
/// Prefer the std::span wrappers below.
struct Kernels {
  Level level = Level::kScalar;

  /// Blocked 4-lane dot product of a[0..n) and b[0..n); a NaN result is
  /// the canonical quiet NaN.
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// y[i] += a * x[i] (elementwise; no reduction, bit-stable everywhere).
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  /// Blocked 4-lane min/max scan; {0, 0} for n == 0. NaN handling follows
  /// the x86 MINPD/MAXPD rule (NaN or tie selects the newer operand) at
  /// every level, scalar included.
  MinMax (*min_max)(const double* x, std::size_t n);
  /// Blocked two-pass mean and population variance; {0, 0} for n == 0.
  /// A NaN mean or variance is the canonical quiet NaN.
  MeanVar (*mean_var)(const double* x, std::size_t n);
  /// out[i] = (x[i] - shift[i]) / scale[i] — the fused scaler transform.
  void (*scale_shift)(const double* x, const double* shift,
                      const double* scale, double* out, std::size_t n);
  /// out[i] = x[i]^2. In-place allowed.
  void (*square)(const double* x, double* out, std::size_t n);
  /// Pan-Tompkins 5-point FIR derivative with clamped left edge:
  /// out[i] = (2 x[i] + x[i-1] - x[i-3] - 2 x[i-4]) / 8, indices < 0
  /// reading x[0]. out must not alias x.
  void (*five_point_derivative)(const double* x, double* out, std::size_t n);
  /// Causal moving-window mean over @p window samples with a growing
  /// denominator during warm-up. Loop-carried running sum: sequential at
  /// every level by design (see kernels_scalar.cpp). out must not alias x.
  void (*moving_window_integral)(const double* x, std::size_t window,
                                 double* out, std::size_t n);
  /// The portrait's fused normalise-and-bin pass over one window. For each
  /// sample t, x = (a[t] - shift_a) / scale_a and y = (b[t] - shift_b) /
  /// scale_b, a channel whose scale is <= 0 (a degenerate range) mapping
  /// to the midpoint 0.5; then i = trunc(clamp(x * n_grid, 0, n_grid - 1))
  /// (NaN -> 0), so x == 1.0 lands in the last column, j likewise from y,
  /// and out[t] = i * n_grid + j, the cell's row-major index. Integer
  /// output: every level matches bit-for-bit. Requires
  /// 1 <= n_grid <= kMaxGridSide.
  void (*grid_cells)(const double* a, const double* b, double shift_a,
                     double scale_a, double shift_b, double scale_b,
                     std::size_t n_grid, std::uint32_t* out, std::size_t n);
  /// Mean and population variance of col[idx[0..n)] — the columnar scaler
  /// fit over a training-set selection. Plain sequential two-pass at every
  /// level BY DESIGN (see kernel_support.hpp): the accumulation order must
  /// match the row-at-a-time scaler fit so columnar training reproduces the
  /// AoS model bit-for-bit, and the gathered loads defeat vector loads
  /// anyway.
  MeanVar (*masked_mean_var)(const double* col, const std::uint32_t* idx,
                             std::size_t n);
  /// out[i * out_stride] = (col[idx[i]] - shift) / scale — gathers a
  /// training-set selection down a stored feature column, applies the
  /// scaler affine, and scatters into one column of a row-major training
  /// matrix. Elementwise (one subtract + one divide per element), so every
  /// level is bit-identical.
  void (*gather_scale_shift)(const double* col, const std::uint32_t* idx,
                             std::size_t n, double shift, double scale,
                             double* out, std::size_t out_stride);
};

/// Kernel table for a specific level. @p level should be in
/// available_levels(); the scalar table is returned for anything else.
const Kernels& kernels(Level level) noexcept;

/// The currently dispatched table (see active_level()).
const Kernels& active() noexcept;

// ---------------------------------------------------------------------------
// Span convenience wrappers over the active dispatch table.
// ---------------------------------------------------------------------------

inline double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return active().dot(a.data(), b.data(), a.size());
}

inline void axpy(double a, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  active().axpy(a, x.data(), y.data(), x.size());
}

inline MinMax min_max(std::span<const double> x) {
  return active().min_max(x.data(), x.size());
}

inline MeanVar mean_var(std::span<const double> x) {
  return active().mean_var(x.data(), x.size());
}

inline void scale_shift(std::span<const double> x,
                        std::span<const double> shift,
                        std::span<const double> scale, std::span<double> out) {
  assert(x.size() == shift.size() && x.size() == scale.size() &&
         x.size() == out.size());
  active().scale_shift(x.data(), shift.data(), scale.data(), out.data(),
                       x.size());
}

inline void square(std::span<const double> x, std::span<double> out) {
  assert(x.size() == out.size());
  active().square(x.data(), out.data(), x.size());
}

inline void five_point_derivative(std::span<const double> x,
                                  std::span<double> out) {
  assert(x.size() == out.size());
  active().five_point_derivative(x.data(), out.data(), x.size());
}

inline void moving_window_integral(std::span<const double> x,
                                   std::size_t window, std::span<double> out) {
  assert(x.size() == out.size());
  active().moving_window_integral(x.data(), window, out.data(), x.size());
}

inline MeanVar masked_mean_var(std::span<const double> col,
                               std::span<const std::uint32_t> idx) {
  return active().masked_mean_var(col.data(), idx.data(), idx.size());
}

inline void gather_scale_shift(std::span<const double> col,
                               std::span<const std::uint32_t> idx, double shift,
                               double scale, double* out,
                               std::size_t out_stride) {
  active().gather_scale_shift(col.data(), idx.data(), idx.size(), shift, scale,
                              out, out_stride);
}

}  // namespace sift::simd
