// Ingest-side packet validation (defense before the queue).
//
// The body-area link delivers whatever the radio decoded: bit-flipped
// samples, truncated payloads, wild sequence numbers. A NaN that reaches
// extract_features poisons every downstream statistic silently, and an
// insane sequence number makes the base station gap-fill megabytes of
// phantom loss — so both are rejected at the door, counted, and never
// enqueued. Validation is stateless and allocation-free: it only scans the
// packet, so it is safe on the zero-allocation ingest path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wiot/packet.hpp"

namespace sift::wiot {

/// Why a packet was rejected (kNone = accepted).
enum class PacketFault : std::uint8_t {
  kNone,
  kBadRate,         ///< sample_rate_hz non-finite or outside [1 Hz, 10 kHz]
  kBadLength,       ///< empty, oversized, or != expected_samples
  kNonFiniteSample, ///< NaN or Inf payload sample
  kPeakOutOfRange,  ///< peak annotation beyond the payload
  kSeqInsane,       ///< sequence number beyond the wraparound guard
};

const char* to_string(PacketFault f) noexcept;

struct ValidationLimits {
  /// Exact payload size required when non-zero (the base station's
  /// samples_per_packet); 0 accepts any length up to max_samples.
  std::size_t expected_samples = 0;
  std::size_t max_samples = 4096;
  /// Sequence numbers at or above this read as corruption/wraparound skew:
  /// a genuine stream would take ~17 years at 2 packets/s to get here, but
  /// one flipped high bit gets here instantly — and would otherwise demand
  /// gigabytes of gap-fill.
  std::uint32_t max_seq = 0x40000000;
};

/// Returns the first fault found, or PacketFault::kNone when the packet is
/// safe to enqueue. Performs no allocation.
PacketFault validate_packet(const Packet& packet,
                            const ValidationLimits& limits = {}) noexcept;

}  // namespace sift::wiot
