// The SIFT portrait: a 2-D normalised ABP x ECG trajectory.
//
// "w time-units synchronously measured ECG and ABP signals are first
//  transformed into a two-dimensional normalized form called a portrait.
//  ... a 2-dimensional portrait P is generated through the function
//  f(t) = (a(t), e(t))" — x is the normalised ABP sample, y the normalised
// ECG sample at the same instant. Characteristic points (R peaks, systolic
// peaks) are carried along as portrait coordinates so the geometric
// features can be computed without re-touching the raw signals.
//
// "Matrix features are generated based on viewing the portrait as an n x n
//  grid and counting the number of points from the portrait that fall into
//  each element in the grid ... We chose n = 50." The matrix features need
// only each column's count and the sum of squared cell counts, so the
// portrait bins every trajectory sample into the grid in the same pass
// that normalises it and keeps just that summary; no trajectory point is
// stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace sift::core {

/// Paper's grid resolution.
inline constexpr std::size_t kDefaultGridSize = 50;

struct Point {
  double x = 0.0;  ///< normalised ABP value a(t)
  double y = 0.0;  ///< normalised ECG value e(t)
};

/// A matched R-peak / systolic-peak pair as portrait coordinates.
struct PeakPairPoints {
  Point r;
  Point systolic;
};

/// Inputs for one window's portrait. Peak indexes are window-relative.
struct PortraitInput {
  std::span<const double> ecg;             ///< raw ECG window (w seconds)
  std::span<const double> abp;             ///< raw ABP window, same length
  std::span<const std::size_t> r_peaks;    ///< R-peak indexes into the window
  std::span<const std::size_t> sys_peaks;  ///< systolic indexes into window
  double sample_rate_hz = 360.0;
};

/// Portrait with its annotated characteristic points and its grid summary.
/// Value-immutable in ordinary use; rebuild() re-derives everything in
/// place so a portrait held in a WindowScratch recycles its storage across
/// windows.
class Portrait {
 public:
  /// Empty portrait; rebuild() before use (exists for WindowScratch reuse).
  Portrait() = default;

  /// Normalises both channels to [0,1] (min-max, per window), bins every
  /// trajectory sample into a grid_n x grid_n grid over the unit square
  /// (coordinates exactly 1.0 fall into the last cell) and records the
  /// portrait coordinates of every peak.
  /// @throws std::invalid_argument on mismatched lengths, empty windows,
  ///         out-of-range peak indexes, or grid_n outside
  ///         [1, simd::kMaxGridSide].
  explicit Portrait(const PortraitInput& in,
                    std::size_t grid_n = kDefaultGridSize) {
    rebuild(in, grid_n);
  }

  /// Rebuilds from a new window, reusing every buffer's capacity — after
  /// warm-up, rebuilding at the same window size and grid performs no heap
  /// allocation. Same validation (and exceptions) as the constructor; on
  /// throw the portrait is left empty.
  void rebuild(const PortraitInput& in, std::size_t grid_n = kDefaultGridSize);

  const std::vector<Point>& r_peak_points() const noexcept { return r_pts_; }
  const std::vector<Point>& systolic_peak_points() const noexcept {
    return sys_pts_;
  }
  /// R->systolic pairs (each systolic peak used once, physiological-delay
  /// window of 0.6 s, cf. sift::peaks::pair_peaks).
  const std::vector<PeakPairPoints>& peak_pairs() const noexcept {
    return pairs_;
  }

  double sample_rate_hz() const noexcept { return rate_; }

  /// Side n of the grid the trajectory was binned into.
  std::size_t grid_n() const noexcept { return grid_n_; }
  /// Trajectory samples binned (every sample lands in some cell).
  std::size_t total_points() const noexcept { return total_; }
  /// Samples per grid column i (along the ABP axis), n entries.
  std::span<const std::uint32_t> column_counts() const noexcept {
    return columns_;
  }
  /// Sum over all n x n cells of the squared cell count, exact.
  std::uint64_t sum_squared_counts() const noexcept { return sum_sq_; }

 private:
  void bin(const PortraitInput& in, std::size_t n, double mn_a,
           double range_a, double mn_e, double range_e);

  std::vector<Point> r_pts_;
  std::vector<Point> sys_pts_;
  std::vector<PeakPairPoints> pairs_;
  double rate_ = 0.0;
  std::size_t grid_n_ = 0;
  std::size_t total_ = 0;
  std::uint64_t sum_sq_ = 0;
  std::vector<std::uint32_t> columns_;
  // Binning scratch. cells_ holds one count per grid cell and is all zero
  // between rebuilds: bin() increments the cells a window visits, lists
  // each first visit in touched_, and zeroes just those cells again.
  std::vector<std::uint32_t> cells_;
  std::vector<std::uint32_t> touched_;
};

}  // namespace sift::core
