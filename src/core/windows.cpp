#include "core/windows.hpp"

#include <algorithm>

namespace sift::core {

void peaks_in_range_into(std::span<const std::size_t> peaks, std::size_t start,
                         std::size_t len, std::vector<std::size_t>& out) {
  out.clear();
  const auto lo = std::lower_bound(peaks.begin(), peaks.end(), start);
  const auto hi = std::lower_bound(lo, peaks.end(), start + len);
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) out.push_back(*it - start);
}

std::vector<std::size_t> peaks_in_range(const std::vector<std::size_t>& peaks,
                                        std::size_t start, std::size_t len) {
  std::vector<std::size_t> out;
  peaks_in_range_into(peaks, start, len, out);
  return out;
}

namespace {

PortraitInput window_input(const physio::Record& rec, std::size_t start,
                           std::size_t len, const std::vector<std::size_t>& r,
                           const std::vector<std::size_t>& s) {
  PortraitInput in;
  in.ecg = rec.ecg.samples().subspan(start, len);
  in.abp = rec.abp.samples().subspan(start, len);
  in.r_peaks = r;
  in.sys_peaks = s;
  in.sample_rate_hz = rec.ecg.sample_rate_hz();
  return in;
}

}  // namespace

Portrait make_window_portrait(const physio::Record& rec, std::size_t start,
                              std::size_t len, std::size_t grid_n) {
  const auto r = peaks_in_range(rec.r_peaks, start, len);
  const auto s = peaks_in_range(rec.systolic_peaks, start, len);
  return Portrait(window_input(rec, start, len, r, s), grid_n);
}

const Portrait& make_window_portrait_into(const physio::Record& rec,
                                          std::size_t start, std::size_t len,
                                          WindowScratch& scratch,
                                          std::size_t grid_n) {
  peaks_in_range_into(rec.r_peaks, start, len, scratch.r_peaks);
  peaks_in_range_into(rec.systolic_peaks, start, len, scratch.sys_peaks);
  scratch.portrait.rebuild(
      window_input(rec, start, len, scratch.r_peaks, scratch.sys_peaks),
      grid_n);
  return scratch.portrait;
}

std::vector<std::vector<double>> extract_window_features(
    const physio::Record& rec, std::size_t window_samples,
    std::size_t stride_samples, DetectorVersion version, Arithmetic arithmetic,
    std::size_t grid_n) {
  std::vector<std::vector<double>> out;
  if (window_samples == 0 || stride_samples == 0 ||
      rec.ecg.size() < window_samples) {
    return out;
  }
  for (std::size_t start = 0; start + window_samples <= rec.ecg.size();
       start += stride_samples) {
    const Portrait p = make_window_portrait(rec, start, window_samples, grid_n);
    out.push_back(extract_features(p, version, arithmetic, grid_n));
  }
  return out;
}

}  // namespace sift::core
