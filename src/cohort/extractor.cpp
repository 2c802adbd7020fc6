#include "cohort/extractor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/windows.hpp"

namespace sift::cohort {

void StreamingWindowExtractor::reset(const Config& config) {
  if (config.window_samples == 0 || config.stride_samples == 0) {
    throw std::invalid_argument(
        "StreamingWindowExtractor: zero window or stride");
  }
  config_ = config;
  base_ = 0;
  next_start_ = 0;
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

void StreamingWindowExtractor::drain(const WindowFn& fn) {
  const std::size_t window = config_.window_samples;
  // Samples of the shorter channel so far: the walkable stream length.
  const std::size_t covered = base_ + std::min(ecg_.size(), abp_.size());
  while (next_start_ + window <= covered) {
    const std::size_t rel = next_start_ - base_;
    core::peaks_in_range_into(r_peaks_, next_start_, window, win_r_);
    core::peaks_in_range_into(sys_peaks_, next_start_, window, win_s_);
    fn(std::span<const double>(ecg_).subspan(rel, window),
       std::span<const double>(abp_).subspan(rel, window), win_r_, win_s_);
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

}  // namespace sift::cohort
