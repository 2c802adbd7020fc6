// Window slicing helpers shared by the trainer, detector and experiments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/portrait.hpp"
#include "core/window_scratch.hpp"
#include "physio/dataset.hpp"

namespace sift::core {

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

/// The feature point of one window of @p rec, built in the calling thread's
/// arena (thread_scratch), so no portrait grid or count matrix is
/// allocated per window; only the returned vector is. Bit-identical to
/// extract_features(make_window_portrait(rec, start, len, grid_n), ...).
/// Not reentrant with another use of the thread's arena (see
/// thread_scratch).
std::vector<double> window_features(const physio::Record& rec,
                                    std::size_t start, std::size_t len,
                                    DetectorVersion version,
                                    Arithmetic arithmetic,
                                    std::size_t grid_n = kDefaultGridSize);

/// Extracts one feature point per stride-spaced window of @p rec, each
/// built like window_features.
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
