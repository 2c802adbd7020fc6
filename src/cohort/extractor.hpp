// Streaming window extraction over archived signal chunks.
//
// The offline trainer must walk archives far larger than it wants resident
// (a year of 360 Hz dual-channel doubles is ~45 GB/user at fleet scale),
// so extraction is a push pipeline in the style of on-device feature
// extractors: chunks of each channel are fed as they decode, every
// complete (window, stride) position is emitted exactly once, and the
// rolling buffers compact behind the last emitted window. The two channels
// feed independently — that is what makes the substitution-attack positive
// class free: stream the donor's ECG against the wearer's ABP and the
// extractor produces exactly the windows core::train_user_model walks over
// the donor's ECG and the wearer's ABP (windows stop at the shorter
// channel, as they do there). Each window then goes through
// core::FeatureRowExtractor, the same window step as the in-memory walk.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace sift::cohort {

class StreamingWindowExtractor {
 public:
  struct Config {
    std::size_t window_samples = 0;
    std::size_t stride_samples = 0;
  };

  /// One complete window; peak indexes are window-relative, channels are
  /// window_samples long. Spans are valid only during the call.
  using WindowFn = std::function<void(
      std::span<const double> ecg, std::span<const double> abp,
      std::span<const std::size_t> r_peaks,
      std::span<const std::size_t> sys_peaks)>;

  /// Re-arms for a new stream, keeping buffer capacity.
  /// @throws std::invalid_argument on a zero window or stride.
  void reset(const Config& config);

  /// Appends channel data. Peak indexes are absolute stream positions and
  /// must arrive in ascending order.
  void feed_ecg(std::span<const double> samples,
                std::span<const std::size_t> r_peaks);
  void feed_abp(std::span<const double> samples,
                std::span<const std::size_t> sys_peaks);

  /// Emits every window both channels now cover, then compacts the
  /// buffers. Call after each feed (or batch of feeds).
  void drain(const WindowFn& fn);

 private:
  void compact();

  Config config_;
  std::size_t base_ = 0;        ///< absolute index of buffer sample 0
  std::size_t next_start_ = 0;  ///< absolute start of the next window
  std::vector<double> ecg_;
  std::vector<double> abp_;
  std::vector<std::size_t> r_peaks_;    ///< absolute, ascending
  std::vector<std::size_t> sys_peaks_;  ///< absolute, ascending
  std::vector<std::size_t> win_r_;      ///< window-relative scratch
  std::vector<std::size_t> win_s_;
};

}  // namespace sift::cohort
