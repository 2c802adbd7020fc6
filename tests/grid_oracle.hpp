// Reference n x n count grid for the portrait's matrix features.
//
// The library bins each window in one pass and keeps only the grid's
// summary (column counts, sum of squared cells, total). This oracle is the
// straightforward construction that summary must equal: normalise every
// sample to a point in the unit square, truncate it into an n x n grid of
// counters, and read the summary off the full grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/portrait.hpp"
#include "simd/simd.hpp"

namespace sift::testing {

struct GridOracle {
  std::size_t n = 0;
  std::vector<std::uint32_t> cells;  ///< row-major, cells[i * n + j]

  /// Count in cell (i = column along the ABP axis, j = row along ECG).
  std::uint32_t at(std::size_t i, std::size_t j) const {
    return cells.at(i * n + j);
  }

  std::vector<std::uint32_t> column_counts() const {
    std::vector<std::uint32_t> cols(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) cols[i] += at(i, j);
    }
    return cols;
  }

  std::uint64_t sum_squared_counts() const {
    std::uint64_t s = 0;
    for (std::uint32_t c : cells) s += static_cast<std::uint64_t>(c) * c;
    return s;
  }

  std::uint64_t total() const {
    std::uint64_t s = 0;
    for (std::uint32_t c : cells) s += c;
    return s;
  }
};

/// Min-max normalisation as the portrait defines it: a degenerate range
/// (<= 0) maps to the midpoint.
inline double oracle_normalize(double x, double mn, double range) {
  return range <= 0.0 ? 0.5 : (x - mn) / range;
}

/// Grid index of a unit-square coordinate: trunc(clamp(u * n, 0, n - 1)),
/// NaN in cell 0, so u == 1.0 lands in the last cell.
inline std::size_t oracle_cell(double u, std::size_t n) {
  double v = u * static_cast<double>(n);
  if (!(v > 0.0)) v = 0.0;
  const double top = static_cast<double>(n - 1);
  if (v > top) v = top;
  return static_cast<std::size_t>(v);
}

inline GridOracle oracle_grid(const core::PortraitInput& in, std::size_t n) {
  GridOracle g;
  g.n = n;
  g.cells.assign(n * n, 0);
  const auto ma = simd::min_max(in.abp);
  const auto me = simd::min_max(in.ecg);
  for (std::size_t t = 0; t < in.ecg.size(); ++t) {
    const double x = oracle_normalize(in.abp[t], ma.min, ma.max - ma.min);
    const double y = oracle_normalize(in.ecg[t], me.min, me.max - me.min);
    ++g.cells[oracle_cell(x, n) * n + oracle_cell(y, n)];
  }
  return g;
}

}  // namespace sift::testing
