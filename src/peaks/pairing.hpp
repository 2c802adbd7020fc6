// R-peak <-> systolic-peak pairing.
//
// SIFT's fifth geometric feature needs, for each R peak, "the corresponding
// Systolic peak": the pressure pulse launched by that heartbeat, which
// arrives one pulse-transit time later. Pairing matches each R peak with the
// first systolic peak inside a physiological delay window.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sift::peaks {

struct PeakPair {
  std::size_t r_index;    ///< ECG R-peak sample index
  std::size_t sys_index;  ///< matching ABP systolic-peak sample index
};

/// Default pairing window: one pulse-transit time is well under 600 ms.
inline constexpr double kDefaultMaxPairDelayS = 0.6;

/// Streams each matched (r, systolic) pair to `emit` without materialising
/// a pair list — the allocation-free core that pair_peaks and
/// Portrait::rebuild share. Same two-pointer walk as pair_peaks: each
/// R peak takes the first later systolic peak within max_delay_s, and each
/// systolic peak is used at most once. Inputs must be ascending.
template <typename Emit>
void for_each_peak_pair(std::span<const std::size_t> r_peaks,
                        std::span<const std::size_t> systolic_peaks,
                        double rate_hz, double max_delay_s, Emit&& emit) {
  const auto max_delay = static_cast<std::size_t>(max_delay_s * rate_hz);
  std::size_t s = 0;
  for (std::size_t r : r_peaks) {
    while (s < systolic_peaks.size() && systolic_peaks[s] <= r) ++s;
    if (s == systolic_peaks.size()) break;
    if (systolic_peaks[s] - r <= max_delay) {
      emit(r, systolic_peaks[s]);
      ++s;  // each systolic peak pairs at most once
    }
  }
}

/// Pairs each R peak with the first systolic peak in
/// (r, r + max_delay_s]; unmatched R peaks are dropped. Each systolic peak
/// is used at most once. Inputs must be ascending.
/// @param rate_hz  shared sampling rate of both index lists
std::vector<PeakPair> pair_peaks(std::span<const std::size_t> r_peaks,
                                 std::span<const std::size_t> systolic_peaks,
                                 double rate_hz,
                                 double max_delay_s = kDefaultMaxPairDelayS);

}  // namespace sift::peaks
