// The WIoT base station: reassembles the two sensor streams, keeps them
// sample-aligned across packet loss, and runs the SIFT detector over every
// complete w-second window.
//
// This is the component the paper deploys SIFT on. Alignment matters more
// than completeness: a dropped packet is gap-filled (sample-and-hold) so
// the ECG and ABP streams never shift relative to each other — a silent
// shift would be indistinguishable from a time-shift attack. Windows that
// contain gap-filled samples are flagged `degraded` so downstream consumers
// can discount those verdicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "core/window_scratch.hpp"
#include "wiot/packet.hpp"

namespace sift::io {
class StateWriter;
class StateReader;
}  // namespace sift::io

namespace sift::wiot {

class BaseStation {
 public:
  struct Config {
    std::size_t window_samples = 1080;     ///< w * rate (3 s at 360 Hz)
    std::size_t samples_per_packet = 180;  ///< sensor batch size
    /// Defense in depth (uses the FFT capability Insight #2 asks for):
    /// estimate the spectral heart rate of both channels per window and
    /// flag the window when they disagree — a hijacked ECG carrying a
    /// different pulse rate is suspicious before any portrait is built.
    bool spectral_cross_check = false;
    /// Per-channel reassembly bound, in windows. Bounds station memory when
    /// one channel stalls (windows only complete when *both* streams have w
    /// samples, so the leading stream would otherwise grow without limit —
    /// fatal once thousands of sessions each hold a station). The bound is
    /// enforced, not allocated: a channel's buffer grows with what it holds,
    /// and interleaved channels never hold more than one window. Packets that
    /// do not fit are dropped and counted in Stats::overflow_dropped; the
    /// sequence-gap machinery later reconstructs them like network loss, so
    /// the two streams never shear out of alignment.
    std::size_t max_buffered_windows = 16;
    /// Report retention. 0 keeps every WindowReport (historical behaviour;
    /// the vector's amortised growth is then the one remaining steady-state
    /// allocation). When set, only the most recent N reports are kept and
    /// the report buffer reaches a fixed capacity — required for the
    /// zero-allocation-per-window guarantee on long-running sessions.
    std::size_t max_report_history = 0;
    /// Largest tolerated forward sequence jump, in packets. A corrupted
    /// sequence number (bit flip, wraparound skew) would otherwise demand
    /// an enormous gap-fill; jumps beyond this are rejected as malformed
    /// instead of reconstructed. 0 disables the guard.
    std::uint32_t max_seq_jump = 4096;
  };

  struct WindowReport {
    std::size_t window_index = 0;
    bool altered = false;
    double decision_value = 0.0;
    bool degraded = false;     ///< window contains gap-filled samples
    bool hr_mismatch = false;  ///< spectral cross-check tripped
    bool unscored = false;     ///< no model available — verdict withheld
    /// Detector version that produced the verdict — the fleet's load-shed
    /// ladder moves sessions between tiers, and every verdict carries the
    /// tier it was scored under so consumers can weigh it.
    core::DetectorVersion tier = core::DetectorVersion::kOriginal;
  };

  struct Stats {
    std::size_t packets_received = 0;
    std::size_t duplicates_ignored = 0;
    std::size_t malformed_rejected = 0;  ///< wrong-size payloads dropped
    std::size_t seq_rejected = 0;  ///< sequence jumps beyond max_seq_jump
    std::size_t gaps_filled = 0;  ///< packets reconstructed by sample-hold
    std::size_t overflow_dropped = 0;  ///< packets shed by the buffer bound
    std::size_t windows_classified = 0;
    std::size_t unscored_windows = 0;  ///< completed without a detector
    std::size_t alerts = 0;
  };

  /// @throws std::invalid_argument if window or packet size is 0, the
  ///         window is not a multiple of the packet size (keeps windows
  ///         packet-aligned, which is how a real pipeline would buffer), or
  ///         max_buffered_windows < 2 (one window being assembled plus one
  ///         of headroom for the lagging channel).
  BaseStation(core::Detector detector, Config config);

  /// Detector-less station: reassembly runs normally but completed windows
  /// are emitted `unscored` until set_detector installs a model. This is
  /// how a fleet session stays alive (and aligned) while its model load is
  /// failing behind a circuit breaker.
  explicit BaseStation(Config config);

  /// Installs or replaces the detector. Takes effect from the next
  /// completed window; the fleet engine uses this both to heal unscored
  /// sessions (breaker half-open probe succeeded) and to move sessions
  /// along the degradation ladder under load.
  void set_detector(core::Detector detector) {
    detector_.emplace(std::move(detector));
  }
  bool has_detector() const noexcept { return detector_.has_value(); }
  /// Version currently scoring windows (kOriginal when unscored).
  core::DetectorVersion tier() const noexcept {
    return detector_ ? detector_->version() : core::DetectorVersion::kOriginal;
  }

  /// Ingests one packet (either channel, any order); classifies and
  /// appends reports as windows complete.
  void receive(const Packet& packet);

  const std::vector<WindowReport>& reports() const noexcept {
    return reports_;
  }
  const Stats& stats() const noexcept { return stats_; }
  /// Precondition: has_detector().
  const core::Detector& detector() const noexcept { return *detector_; }

  /// Serializes the reassembly state a restart cannot recompute: stats,
  /// report history, and per-channel sequence cursors, buffered residue
  /// (samples + one gap-fill flag byte per sample, expanded from the gap
  /// runs), and peak annotations. The detector is deliberately excluded —
  /// models are re-provided by the fleet registry.
  void export_state(io::StateWriter& w) const;

  /// Inverse of export_state. The stored geometry (window size, packet
  /// size, buffer bound) must match this station's config — restoring a
  /// checkpoint into a differently-shaped station would silently shear the
  /// streams. @throws std::runtime_error on mismatch, truncation, a residue
  /// beyond the buffer bound, or a flag count that differs from the sample
  /// count.
  void import_state(io::StateReader& r);

 private:
  /// A [begin, end) run of gap-filled samples, relative to the oldest.
  struct Gap {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Linear reassembly state: the oldest sample sits at index 0, so a
  /// complete window is the contiguous prefix the detector reads in place.
  /// Gap fills are rare, so they are kept as runs rather than one flag per
  /// sample.
  struct Stream {
    std::uint32_t next_seq = 0;
    std::vector<double> samples;
    std::vector<Gap> gaps;           ///< sorted, adjacent runs merged
    std::vector<std::size_t> peaks;  ///< indexes relative to oldest sample

    /// Drops the oldest @p n samples and rebases gaps and peaks onto the
    /// remainder, in place.
    void consume(std::size_t n);
  };

  static Config validated(Config config);
  std::size_t bound() const noexcept {
    return config_.max_buffered_windows * config_.window_samples;
  }

  Stream& stream_for(ChannelKind kind) {
    return kind == ChannelKind::kEcg ? ecg_ : abp_;
  }
  bool append(Stream& s, const Packet& p, bool as_gap_fill);
  void classify_ready_windows();

  std::optional<core::Detector> detector_;
  Config config_;
  Stream ecg_;
  Stream abp_;
  std::vector<WindowReport> reports_;
  Stats stats_;
  // Scratch reused across packets/windows to avoid steady-state allocation.
  // With max_report_history set, a station's receive -> classify path
  // performs zero heap allocations per window once warm (spectral
  // cross-check, off by default, is outside that envelope).
  core::WindowScratch scratch_;
};

}  // namespace sift::wiot
