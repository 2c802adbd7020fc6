#include "core/portrait.hpp"

#include <algorithm>
#include <cstddef>

#include "peaks/pairing.hpp"
#include "simd/simd.hpp"

namespace sift::core {

namespace {

/// Per-window min-max normaliser: x -> (x - min) / (max - min). A
/// degenerate window (range <= 0, e.g. a flatline attack) maps every
/// sample to the midpoint 0.5, so the portrait geometry stays finite —
/// the same rule simd grid_cells applies.
struct Normalizer {
  double mn = 0.0;
  double range = 0.0;

  explicit Normalizer(std::span<const double> xs) {
    const auto mm = simd::min_max(xs);
    mn = mm.min;
    range = mm.max - mn;
  }

  double operator()(double x) const noexcept {
    return range <= 0.0 ? 0.5 : (x - mn) / range;
  }
};

}  // namespace

void Portrait::rebuild(const PortraitInput& in, std::size_t grid_n) {
  r_pts_.clear();
  sys_pts_.clear();
  pairs_.clear();
  columns_.clear();
  rate_ = in.sample_rate_hz;
  grid_n_ = 0;
  total_ = 0;
  sum_sq_ = 0;

  if (in.ecg.empty() || in.ecg.size() != in.abp.size()) {
    throw std::invalid_argument("Portrait: ECG/ABP windows must match");
  }
  if (!(rate_ > 0.0)) {
    throw std::invalid_argument("Portrait: sample rate must be positive");
  }
  if (grid_n == 0 || grid_n > simd::kMaxGridSide) {
    throw std::invalid_argument("Portrait: grid size out of range");
  }
  for (std::size_t p : in.r_peaks) {
    if (p >= in.ecg.size()) {
      throw std::invalid_argument("Portrait: R-peak index out of range");
    }
  }
  for (std::size_t p : in.sys_peaks) {
    if (p >= in.abp.size()) {
      throw std::invalid_argument("Portrait: systolic index out of range");
    }
  }

  const Normalizer norm_e(in.ecg);
  const Normalizer norm_a(in.abp);
  bin(in, grid_n, norm_a.mn, norm_a.range, norm_e.mn, norm_e.range);

  // Peaks are normalised at their own indexes: the same operations the
  // binning pass applied to those samples, and the only coordinates the
  // geometric features read.
  const auto point = [&](std::size_t t) -> Point {
    return {norm_a(in.abp[t]), norm_e(in.ecg[t])};
  };
  r_pts_.reserve(in.r_peaks.size());
  for (std::size_t p : in.r_peaks) r_pts_.push_back(point(p));
  sys_pts_.reserve(in.sys_peaks.size());
  for (std::size_t p : in.sys_peaks) sys_pts_.push_back(point(p));

  peaks::for_each_peak_pair(in.r_peaks, in.sys_peaks, rate_,
                            peaks::kDefaultMaxPairDelayS,
                            [&](std::size_t r, std::size_t s) {
                              pairs_.push_back({point(r), point(s)});
                            });
}

void Portrait::bin(const PortraitInput& in, std::size_t n, double mn_a,
                   double range_a, double mn_e, double range_e) {
  const std::size_t samples = in.ecg.size();
  // Grow-only, so the all-zero invariant survives a grid change: a smaller
  // grid reuses a prefix of zero cells.
  if (cells_.size() < n * n) cells_.resize(n * n);
  // One slot per distinct cell a window can visit, plus the slot the
  // branch-free append below writes past the last one.
  const std::size_t max_touched = std::min(samples, n * n) + 1;
  if (touched_.size() < max_touched) touched_.resize(max_touched);
  columns_.assign(n, 0);

  std::uint32_t* const cells = cells_.data();
  std::uint32_t* const touched = touched_.data();
  std::size_t n_touched = 0;
  // The kernel writes a block of cell indexes to the stack; each is
  // counted, and appended to touched on its first visit, branch-free.
  constexpr std::size_t kBlock = 256;
  std::uint32_t block[kBlock];
  const simd::Kernels& kernels = simd::active();
  for (std::size_t t0 = 0; t0 < samples; t0 += kBlock) {
    const std::size_t len = std::min(kBlock, samples - t0);
    kernels.grid_cells(in.abp.data() + t0, in.ecg.data() + t0, mn_a, range_a,
                       mn_e, range_e, n, block, len);
    for (std::size_t t = 0; t < len; ++t) {
      const std::uint32_t k = block[t];
      touched[n_touched] = k;
      n_touched += cells[k] == 0;
      ++cells[k];
    }
  }

  // Column counts and the exact sum of squares come from the visited cells
  // alone, which are zeroed on the way out. Cell k lies in column k / n:
  // (k + 0.5) / n sits at least 0.5 / n inside that column's interval,
  // and the two roundings below err by about 2^-52 relative, under 2e-11
  // absolute for n <= simd::kMaxGridSide, so the truncation is exact.
  const double inv_n = 1.0 / static_cast<double>(n);
  std::uint64_t sum_sq = 0;
  for (std::size_t v = 0; v < n_touched; ++v) {
    const std::uint32_t k = touched[v];
    const std::uint64_t c = cells[k];
    cells[k] = 0;
    columns_[static_cast<std::size_t>((k + 0.5) * inv_n)] +=
        static_cast<std::uint32_t>(c);
    sum_sq += c * c;
  }
  grid_n_ = n;
  total_ = samples;
  sum_sq_ = sum_sq;
}

}  // namespace sift::core
