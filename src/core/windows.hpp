// Window slicing helpers shared by the trainer, detector and experiments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/feature_vector.hpp"
#include "core/features.hpp"
#include "core/portrait.hpp"
#include "core/window_scratch.hpp"
#include "physio/dataset.hpp"

namespace sift::core {

/// Samples in @p seconds at @p rate_hz, rounded to nearest: the length of a
/// window or stride given in seconds.
constexpr std::size_t to_samples(double seconds, double rate_hz) noexcept {
  return static_cast<std::size_t>(seconds * rate_hz + 0.5);
}

/// Allocation-free (after warm-up) variant of peaks_in_range: rebased
/// window-relative peaks are appended into @p out, which is cleared first
/// and keeps its capacity across calls.
void peaks_in_range_into(std::span<const std::size_t> peaks, std::size_t start,
                         std::size_t len, std::vector<std::size_t>& out);

/// Peaks falling in [start, start+len), rebased to window-relative indexes.
/// @p peaks must be ascending.
std::vector<std::size_t> peaks_in_range(const std::vector<std::size_t>& peaks,
                                        std::size_t start, std::size_t len);

/// Builds the portrait of one window of @p rec starting at sample @p start,
/// binned at @p grid_n. Uses the record's peak annotations (the paper
/// pre-stored peak indexes; run-time detection is exercised separately via
/// sift::peaks).
Portrait make_window_portrait(const physio::Record& rec, std::size_t start,
                              std::size_t len,
                              std::size_t grid_n = kDefaultGridSize);

/// Rebuilds scratch.portrait (and the scratch peak buffers) from one window
/// of @p rec — the steady-state path classify_record runs: zero heap
/// allocations once the scratch is warm. Returns scratch.portrait.
const Portrait& make_window_portrait_into(
    const physio::Record& rec, std::size_t start, std::size_t len,
    WindowScratch& scratch, std::size_t grid_n = kDefaultGridSize);

/// One window in, one feature row per tier out: the window step of every
/// feature walk. set_window rebuilds the portrait and count matrix once in
/// @p scratch (by default the thread's arena, so nothing is allocated per
/// window); features() then reads any number of tiers from them.
class FeatureRowExtractor {
 public:
  FeatureRowExtractor(std::size_t grid_n, Arithmetic arithmetic,
                      WindowScratch& scratch = thread_scratch())
      : grid_n_(grid_n), arithmetic_(arithmetic), scratch_(scratch) {}

  /// The window [start, start+len) of the stream pairing @p ecg_from's ECG
  /// and R peaks with @p abp_from's ABP and systolic peaks (the same record
  /// for a genuine stream). Both records are read in place.
  void set_window(const physio::Record& ecg_from,
                  const physio::Record& abp_from, std::size_t start,
                  std::size_t len);

  /// A window given as window-long channels and window-relative peaks.
  void set_window(std::span<const double> ecg, std::span<const double> abp,
                  std::span<const std::size_t> r_peaks,
                  std::span<const std::size_t> sys_peaks,
                  double sample_rate_hz);

  /// Features of the current window for @p version. The returned span is
  /// valid until the next features()/set_window() call.
  std::span<const double> features(DetectorVersion version);

 private:
  std::size_t grid_n_;
  Arithmetic arithmetic_;
  WindowScratch& scratch_;
  FeatureVector row_;
};

/// Extracts one feature point per stride-spaced window of @p rec through a
/// FeatureRowExtractor on the thread's arena.
std::vector<std::vector<double>> extract_window_features(
    const physio::Record& rec, std::size_t window_samples,
    std::size_t stride_samples, DetectorVersion version, Arithmetic arithmetic,
    std::size_t grid_n = kDefaultGridSize);

/// The same over a substitution-attacked stream: @p ecg_from's ECG and R
/// peaks over @p abp_from's ABP and systolic peaks, for their common
/// length. Both records are read in place, so no hybrid record is copied.
std::vector<std::vector<double>> extract_window_features(
    const physio::Record& ecg_from, const physio::Record& abp_from,
    std::size_t window_samples, std::size_t stride_samples,
    DetectorVersion version, Arithmetic arithmetic,
    std::size_t grid_n = kDefaultGridSize);

}  // namespace sift::core
