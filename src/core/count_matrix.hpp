// The n x n count matrix C over the portrait grid.
//
// "Matrix features are generated based on viewing the portrait as an n x n
//  grid and counting the number of points from the portrait that fall into
//  each element in the grid ... each element c(i, j) is the number of
//  points in the corresponding grid element (i, j) ... We chose n = 50."
//
// The matrix features read C only through its column counts (the
// column-average curve) and the sum of its squared cells (the spatial
// filling index), so this class holds exactly that summary, which the
// portrait computes while it bins its trajectory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/portrait.hpp"

namespace sift::core {

class CountMatrix {
 public:
  /// Empty matrix; rebuild() before use. Exists so a matrix can live inside
  /// a reusable WindowScratch and recycle its storage across windows.
  CountMatrix() = default;

  /// The summary of @p portrait's n x n grid.
  /// @throws std::invalid_argument if n == 0 or n != portrait.grid_n().
  explicit CountMatrix(const Portrait& portrait,
                       std::size_t n = kDefaultGridSize) {
    rebuild(portrait, n);
  }

  /// Copies the portrait's grid summary in place; after the first build at
  /// a given n, rebuilding at the same (or smaller) n performs no heap
  /// allocation.
  /// @throws std::invalid_argument if n == 0 or n != portrait.grid_n().
  void rebuild(const Portrait& portrait, std::size_t n = kDefaultGridSize);

  std::size_t n() const noexcept { return n_; }
  std::size_t total_points() const noexcept { return total_; }

  /// Points in each grid column i (along the ABP axis), n entries.
  std::span<const std::uint32_t> column_counts() const noexcept {
    return columns_;
  }

  /// Column averages: mean count of column i over its n cells,
  /// column_counts()[i] / n — the curve whose standard deviation /
  /// variance / AUC form the matrix features.
  std::vector<double> column_averages() const;

  /// Spatial Filling Index: with p(i,j) = c(i,j)/total, the occupancy
  /// concentration  SFI = sum_ij p(i,j)^2.
  /// A portrait spread over many cells minimises it (lower bound 1/total);
  /// a portrait concentrated in one cell attains the maximum 1. Literature
  /// variants divide by the constant n^2; that affine rescale is absorbed
  /// by the feature scaler, and omitting it keeps the value representable
  /// in Q16.16 for the constrained-arithmetic backend. Computed in exact
  /// integer arithmetic with a single final division.
  double spatial_filling_index() const noexcept;

  /// Raw integer sums used by constrained-arithmetic feature backends:
  /// sum of squared counts (fits 64 bits for any realistic window).
  std::uint64_t sum_squared_counts() const noexcept { return sum_sq_; }

 private:
  std::size_t n_ = 0;
  std::size_t total_ = 0;
  std::uint64_t sum_sq_ = 0;
  std::vector<std::uint32_t> columns_;
};

}  // namespace sift::core
