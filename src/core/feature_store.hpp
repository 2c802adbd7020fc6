// Columnar (structure-of-arrays) feature storage for training.
//
// The per-user training set is tiny by row count but hot by access
// pattern: scaler fitting, threshold grids and SVM packing all iterate a
// single feature dimension across every row. A row-major ml::Dataset makes
// each of those walks stride sizeof(row) through memory; one contiguous
// array per column makes them unit-stride and lets the src/simd column
// kernels (masked_mean_var, gather_scale_shift) run straight down cache
// lines. Rows are appended, columns are read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sift::core {

class FeatureStore {
 public:
  /// Drops all rows and re-shapes to @p dims columns. Column capacity is
  /// kept, so a store reused across users stops allocating once it has
  /// seen its largest user.
  void reset(std::size_t dims) {
    cols_.resize(dims);
    for (auto& c : cols_) c.clear();
    ptrs_.resize(dims);
    rows_ = 0;
  }

  void push_row(std::span<const double> row) {
    for (std::size_t j = 0; j < cols_.size(); ++j) cols_[j].push_back(row[j]);
    ++rows_;
  }

  std::size_t rows() const noexcept { return rows_; }

  /// One pointer per column, for the span-of-pointers column APIs
  /// (ml::StandardScaler::fit_columns). Valid until the next push/reset.
  std::span<const double* const> column_pointers() {
    for (std::size_t j = 0; j < cols_.size(); ++j) ptrs_[j] = cols_[j].data();
    return ptrs_;
  }

 private:
  std::vector<std::vector<double>> cols_;
  std::vector<const double*> ptrs_;
  std::size_t rows_ = 0;
};

}  // namespace sift::core
