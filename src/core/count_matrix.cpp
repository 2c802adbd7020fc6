#include "core/count_matrix.hpp"

#include <cstddef>
#include <stdexcept>

namespace sift::core {

void CountMatrix::rebuild(const Portrait& portrait, std::size_t n) {
  if (n == 0) throw std::invalid_argument("CountMatrix: n must be positive");
  if (n != portrait.grid_n()) {
    throw std::invalid_argument(
        "CountMatrix: n differs from the portrait's grid");
  }
  n_ = n;
  total_ = portrait.total_points();
  sum_sq_ = portrait.sum_squared_counts();
  const auto cols = portrait.column_counts();
  columns_.assign(cols.begin(), cols.end());  // reuses capacity once warm
}

std::vector<double> CountMatrix::column_averages() const {
  std::vector<double> avg;
  avg.reserve(n_);
  for (std::uint32_t c : columns_) {
    avg.push_back(static_cast<double>(c) / static_cast<double>(n_));
  }
  return avg;
}

double CountMatrix::spatial_filling_index() const noexcept {
  if (total_ == 0) return 0.0;
  return static_cast<double>(sum_sq_) /
         (static_cast<double>(total_) * static_cast<double>(total_));
}

}  // namespace sift::core
