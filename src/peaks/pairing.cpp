#include "peaks/pairing.hpp"

namespace sift::peaks {

std::vector<PeakPair> pair_peaks(std::span<const std::size_t> r_peaks,
                                 std::span<const std::size_t> systolic_peaks,
                                 double rate_hz, double max_delay_s) {
  std::vector<PeakPair> pairs;
  for_each_peak_pair(r_peaks, systolic_peaks, rate_hz, max_delay_s,
                     [&](std::size_t r, std::size_t s) {
                       pairs.push_back({r, s});
                     });
  return pairs;
}

}  // namespace sift::peaks
