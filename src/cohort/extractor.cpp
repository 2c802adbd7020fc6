#include "cohort/extractor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/portrait.hpp"

namespace sift::cohort {

void StreamingWindowExtractor::reset(const Config& config) {
  if (config.window_samples == 0 || config.stride_samples == 0) {
    throw std::invalid_argument(
        "StreamingWindowExtractor: zero window or stride");
  }
  config_ = config;
  base_ = 0;
  next_start_ = 0;
  windows_emitted_ = 0;
  ecg_.clear();
  abp_.clear();
  r_peaks_.clear();
  sys_peaks_.clear();
}

void StreamingWindowExtractor::feed_ecg(std::span<const double> samples,
                                        std::span<const std::size_t> r_peaks) {
  ecg_.insert(ecg_.end(), samples.begin(), samples.end());
  r_peaks_.insert(r_peaks_.end(), r_peaks.begin(), r_peaks.end());
}

void StreamingWindowExtractor::feed_abp(
    std::span<const double> samples, std::span<const std::size_t> sys_peaks) {
  abp_.insert(abp_.end(), samples.begin(), samples.end());
  sys_peaks_.insert(sys_peaks_.end(), sys_peaks.begin(), sys_peaks.end());
}

std::size_t StreamingWindowExtractor::covered_samples() const noexcept {
  return base_ + std::min(ecg_.size(), abp_.size());
}

void StreamingWindowExtractor::drain(const WindowFn& fn) {
  const std::size_t window = config_.window_samples;
  const std::size_t covered = covered_samples();
  while (next_start_ + window <= covered) {
    const std::size_t rel = next_start_ - base_;
    const auto window_peaks = [&](const std::vector<std::size_t>& peaks,
                                  std::vector<std::size_t>& out) {
      out.clear();
      const auto lo =
          std::lower_bound(peaks.begin(), peaks.end(), next_start_);
      const auto hi = std::lower_bound(lo, peaks.end(), next_start_ + window);
      for (auto it = lo; it != hi; ++it) out.push_back(*it - next_start_);
    };
    window_peaks(r_peaks_, win_r_);
    window_peaks(sys_peaks_, win_s_);
    fn(std::span<const double>(ecg_).subspan(rel, window),
       std::span<const double>(abp_).subspan(rel, window), win_r_, win_s_);
    ++windows_emitted_;
    next_start_ += config_.stride_samples;
  }
  compact();
}

void StreamingWindowExtractor::compact() {
  // Nothing below next_start_ can appear in a future window. Compaction is
  // deferred until the dead prefix outweighs the live tail so the erase
  // cost amortises to O(1) per sample.
  const std::size_t dead = next_start_ - base_;
  if (dead < 4096 || dead < ecg_.size() / 2) return;
  const std::size_t cut = std::min({dead, ecg_.size(), abp_.size()});
  ecg_.erase(ecg_.begin(), ecg_.begin() + static_cast<std::ptrdiff_t>(cut));
  abp_.erase(abp_.begin(), abp_.begin() + static_cast<std::ptrdiff_t>(cut));
  base_ += cut;
  const auto drop_peaks = [&](std::vector<std::size_t>& peaks) {
    const auto lo = std::lower_bound(peaks.begin(), peaks.end(), base_);
    peaks.erase(peaks.begin(), lo);
  };
  drop_peaks(r_peaks_);
  drop_peaks(sys_peaks_);
}

void FeatureRowExtractor::set_window(std::span<const double> ecg,
                                     std::span<const double> abp,
                                     std::span<const std::size_t> r_peaks,
                                     std::span<const std::size_t> sys_peaks,
                                     double sample_rate_hz) {
  core::PortraitInput in;
  in.ecg = ecg;
  in.abp = abp;
  in.r_peaks = r_peaks;
  in.sys_peaks = sys_peaks;
  in.sample_rate_hz = sample_rate_hz;
  scratch_.portrait.rebuild(in, grid_n_);
  scratch_.matrix.rebuild(scratch_.portrait, grid_n_);
}

std::span<const double> FeatureRowExtractor::features(
    core::DetectorVersion version) {
  core::extract_features_into(scratch_.portrait, scratch_.matrix, version,
                              arithmetic_, row_);
  return row_.span();
}

}  // namespace sift::cohort
