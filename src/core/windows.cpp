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

// One window of the stream pairing @p ecg_from's ECG and R peaks with
// @p abp_from's ABP and systolic peaks (the same record for a genuine
// stream). Peak indexes are window-relative, in @p r and @p s.
PortraitInput window_input(const physio::Record& ecg_from,
                           const physio::Record& abp_from, std::size_t start,
                           std::size_t len, const std::vector<std::size_t>& r,
                           const std::vector<std::size_t>& s) {
  PortraitInput in;
  in.ecg = ecg_from.ecg.samples().subspan(start, len);
  in.abp = abp_from.abp.samples().subspan(start, len);
  in.r_peaks = r;
  in.sys_peaks = s;
  in.sample_rate_hz = ecg_from.ecg.sample_rate_hz();
  return in;
}

const Portrait& portrait_into(const physio::Record& ecg_from,
                              const physio::Record& abp_from,
                              std::size_t start, std::size_t len,
                              WindowScratch& scratch, std::size_t grid_n) {
  peaks_in_range_into(ecg_from.r_peaks, start, len, scratch.r_peaks);
  peaks_in_range_into(abp_from.systolic_peaks, start, len, scratch.sys_peaks);
  scratch.portrait.rebuild(window_input(ecg_from, abp_from, start, len,
                                        scratch.r_peaks, scratch.sys_peaks),
                           grid_n);
  return scratch.portrait;
}

}  // namespace

Portrait make_window_portrait(const physio::Record& rec, std::size_t start,
                              std::size_t len, std::size_t grid_n) {
  const auto r = peaks_in_range(rec.r_peaks, start, len);
  const auto s = peaks_in_range(rec.systolic_peaks, start, len);
  return Portrait(window_input(rec, rec, start, len, r, s), grid_n);
}

const Portrait& make_window_portrait_into(const physio::Record& rec,
                                          std::size_t start, std::size_t len,
                                          WindowScratch& scratch,
                                          std::size_t grid_n) {
  return portrait_into(rec, rec, start, len, scratch, grid_n);
}

void FeatureRowExtractor::set_window(const physio::Record& ecg_from,
                                     const physio::Record& abp_from,
                                     std::size_t start, std::size_t len) {
  scratch_.matrix.rebuild(
      portrait_into(ecg_from, abp_from, start, len, scratch_, grid_n_),
      grid_n_);
}

void FeatureRowExtractor::set_window(std::span<const double> ecg,
                                     std::span<const double> abp,
                                     std::span<const std::size_t> r_peaks,
                                     std::span<const std::size_t> sys_peaks,
                                     double sample_rate_hz) {
  scratch_.portrait.rebuild({ecg, abp, r_peaks, sys_peaks, sample_rate_hz},
                            grid_n_);
  scratch_.matrix.rebuild(scratch_.portrait, grid_n_);
}

std::span<const double> FeatureRowExtractor::features(DetectorVersion version) {
  extract_features_into(scratch_.portrait, scratch_.matrix, version,
                        arithmetic_, row_);
  return row_.span();
}

std::vector<std::vector<double>> extract_window_features(
    const physio::Record& ecg_from, const physio::Record& abp_from,
    std::size_t window_samples, std::size_t stride_samples,
    DetectorVersion version, Arithmetic arithmetic, std::size_t grid_n) {
  std::vector<std::vector<double>> out;
  const std::size_t len = std::min(ecg_from.ecg.size(), abp_from.abp.size());
  if (window_samples == 0 || stride_samples == 0 || len < window_samples) {
    return out;
  }
  FeatureRowExtractor rows(grid_n, arithmetic);
  for (std::size_t start = 0; start + window_samples <= len;
       start += stride_samples) {
    rows.set_window(ecg_from, abp_from, start, window_samples);
    const auto x = rows.features(version);
    out.emplace_back(x.begin(), x.end());
  }
  return out;
}

std::vector<std::vector<double>> extract_window_features(
    const physio::Record& rec, std::size_t window_samples,
    std::size_t stride_samples, DetectorVersion version, Arithmetic arithmetic,
    std::size_t grid_n) {
  return extract_window_features(rec, rec, window_samples, stride_samples,
                                 version, arithmetic, grid_n);
}

}  // namespace sift::core
