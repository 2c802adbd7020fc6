#include "core/portrait.hpp"

#include <algorithm>
#include <cstddef>

#include "peaks/pairing.hpp"
#include "simd/simd.hpp"

namespace sift::core {

namespace {

/// Per-window min-max normaliser: x -> (x - min) / (max - min). A
/// degenerate window (range <= 0, e.g. a flatline attack) maps every
/// sample to the midpoint 0.5, so the portrait geometry stays finite.
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

void Portrait::rebuild(const PortraitInput& in) {
  points_.clear();
  r_pts_.clear();
  sys_pts_.clear();
  pairs_.clear();
  rate_ = in.sample_rate_hz;

  if (in.ecg.empty() || in.ecg.size() != in.abp.size()) {
    throw std::invalid_argument("Portrait: ECG/ABP windows must match");
  }
  if (!(rate_ > 0.0)) {
    throw std::invalid_argument("Portrait: sample rate must be positive");
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

  // Fused normalise + point write: one pass over each channel for min/max,
  // one combined pass emitting trajectory points, no normalised copies.
  const Normalizer norm_e(in.ecg);
  const Normalizer norm_a(in.abp);

  const std::size_t n = in.ecg.size();
  points_.resize(n);
  Point* const pts = points_.data();
  if (norm_a.range > 0.0 && norm_e.range > 0.0) {
    // Hot case: both ranges non-degenerate, so the per-sample branch in
    // Normalizer::operator() is loop-invariant — the fused dual-channel
    // kernel normalises both channels and writes the interleaved (x, y)
    // pairs in one pass. Same IEEE operations per element, so results
    // stay bit-identical to the generic path.
    static_assert(sizeof(Point) == 2 * sizeof(double) &&
                      offsetof(Point, y) == sizeof(double),
                  "Point must be an interleaved (x, y) double pair");
    simd::active().normalize01_interleave2(
        in.abp.data(), in.ecg.data(), norm_a.mn, norm_a.range, norm_e.mn,
        norm_e.range, &pts[0].x, n);
  } else {
    for (std::size_t t = 0; t < n; ++t) {
      pts[t] = {norm_a(in.abp[t]), norm_e(in.ecg[t])};
    }
  }

  r_pts_.reserve(in.r_peaks.size());
  for (std::size_t p : in.r_peaks) r_pts_.push_back(points_[p]);
  sys_pts_.reserve(in.sys_peaks.size());
  for (std::size_t p : in.sys_peaks) sys_pts_.push_back(points_[p]);

  peaks::for_each_peak_pair(in.r_peaks, in.sys_peaks, rate_,
                            peaks::kDefaultMaxPairDelayS,
                            [&](std::size_t r, std::size_t s) {
                              pairs_.push_back({points_[r], points_[s]});
                            });
}

}  // namespace sift::core
