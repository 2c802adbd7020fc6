#include "wiot/validate.hpp"

#include <cmath>

namespace sift::wiot {

constexpr double kMinRateHz = 1.0;
constexpr double kMaxRateHz = 10000.0;

const char* to_string(PacketFault f) noexcept {
  switch (f) {
    case PacketFault::kNone:
      return "none";
    case PacketFault::kBadRate:
      return "bad-rate";
    case PacketFault::kBadLength:
      return "bad-length";
    case PacketFault::kNonFiniteSample:
      return "non-finite-sample";
    case PacketFault::kPeakOutOfRange:
      return "peak-out-of-range";
    case PacketFault::kSeqInsane:
      return "seq-insane";
  }
  return "unknown";
}

PacketFault validate_packet(const Packet& packet,
                            const ValidationLimits& limits) noexcept {
  if (!std::isfinite(packet.sample_rate_hz) ||
      packet.sample_rate_hz < kMinRateHz ||
      packet.sample_rate_hz > kMaxRateHz) {
    return PacketFault::kBadRate;
  }
  if (packet.samples.empty() || packet.samples.size() > limits.max_samples ||
      (limits.expected_samples != 0 &&
       packet.samples.size() != limits.expected_samples)) {
    return PacketFault::kBadLength;
  }
  if (packet.seq >= limits.max_seq) {
    return PacketFault::kSeqInsane;
  }
  for (double v : packet.samples) {
    if (!std::isfinite(v)) return PacketFault::kNonFiniteSample;
  }
  for (std::size_t p : packet.peaks) {
    if (p >= packet.samples.size()) return PacketFault::kPeakOutOfRange;
  }
  return PacketFault::kNone;
}

}  // namespace sift::wiot
