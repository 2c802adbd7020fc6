#include "wiot/base_station.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

#include "io/state.hpp"
#include "signal/fft.hpp"

namespace sift::wiot {

/// Spectral cross-check threshold. A 3 s window FFT resolves ~10.5 bpm per
/// bin, but genuine channels share every beat and land in the *same* bin,
/// so 1.5 bins of slack is already conservative.
constexpr double kHrMismatchBpm = 15.0;

BaseStation::Config BaseStation::validated(Config config) {
  if (config.window_samples == 0 || config.samples_per_packet == 0 ||
      config.window_samples % config.samples_per_packet != 0) {
    throw std::invalid_argument(
        "BaseStation: window must be a positive multiple of the packet size");
  }
  if (config.max_buffered_windows < 2) {
    throw std::invalid_argument(
        "BaseStation: max_buffered_windows must be at least 2");
  }
  return config;
}

BaseStation::BaseStation(core::Detector detector, Config config)
    : BaseStation(config) {
  detector_.emplace(std::move(detector));
}

BaseStation::BaseStation(Config config) : config_(validated(config)) {
  // One window per channel is the interleaved high-water mark, so steady
  // state never reallocates; only a stalled peer grows a buffer further.
  ecg_.samples.reserve(config_.window_samples);
  abp_.samples.reserve(config_.window_samples);
}

bool BaseStation::append(Stream& s, const Packet& p, bool as_gap_fill) {
  const std::size_t n = config_.samples_per_packet;
  const std::size_t base = s.samples.size();
  if (bound() - base < n) {
    // The buffer bound protects station memory when the peer channel stalls
    // and no windows can complete. Shedding here behaves exactly like
    // network loss: next_seq is left untouched by the caller, so once space
    // frees up the gap-fill path reconstructs the shed span and the two
    // streams stay sample-aligned.
    ++stats_.overflow_dropped;
    return false;
  }
  if (as_gap_fill) {
    // Sample-and-hold reconstruction: repeat the last known value (or 0 at
    // stream start). No peaks are invented for the missing span.
    const double hold = base > 0 ? s.samples.back() : 0.0;
    s.samples.insert(s.samples.end(), n, hold);
    if (!s.gaps.empty() && s.gaps.back().end == base) {
      s.gaps.back().end += n;
    } else {
      s.gaps.push_back({base, base + n});
    }
    ++stats_.gaps_filled;
    return true;
  }
  s.samples.insert(s.samples.end(), p.samples.begin(), p.samples.end());
  for (std::size_t rel : p.peaks) s.peaks.push_back(base + rel);
  return true;
}

void BaseStation::Stream::consume(std::size_t n) {
  samples.erase(samples.begin(),
                samples.begin() + static_cast<std::ptrdiff_t>(n));
  std::size_t kept = 0;
  for (const Gap g : gaps) {
    if (g.end > n) gaps[kept++] = {g.begin > n ? g.begin - n : 0, g.end - n};
  }
  gaps.resize(kept);
  kept = 0;
  for (std::size_t p : peaks) {
    if (p >= n) peaks[kept++] = p - n;
  }
  peaks.resize(kept);
}

void BaseStation::receive(const Packet& packet) {
  ++stats_.packets_received;
  // A payload of the wrong size would silently shear the two streams out
  // of alignment — the exact failure mode the gap-filling protects
  // against. Reject it; the sequence gap will be reconstructed instead.
  if (packet.samples.size() != config_.samples_per_packet) {
    ++stats_.malformed_rejected;
    return;
  }
  for (std::size_t rel : packet.peaks) {
    if (rel >= packet.samples.size()) {
      ++stats_.malformed_rejected;
      return;
    }
  }
  Stream& s = stream_for(packet.kind);

  if (packet.seq < s.next_seq) {
    ++stats_.duplicates_ignored;
    return;
  }
  // A forward jump beyond the guard is a corrupted sequence number, not
  // loss: reconstructing it would flood the buffers with phantom gap-fill.
  if (config_.max_seq_jump != 0 &&
      packet.seq - s.next_seq > config_.max_seq_jump) {
    ++stats_.seq_rejected;
    return;
  }
  // Reconstruct any skipped packets so the two streams stay aligned. When
  // the buffer bound rejects a fill (or the packet itself), bail without
  // advancing next_seq — the shed span reads as loss and is gap-filled on a
  // later receive once window completion drains the backlog.
  while (s.next_seq < packet.seq) {
    if (!append(s, packet, /*as_gap_fill=*/true)) return;
    ++s.next_seq;
  }
  if (!append(s, packet, /*as_gap_fill=*/false)) return;
  ++s.next_seq;

  classify_ready_windows();
}

void BaseStation::classify_ready_windows() {
  const std::size_t w = config_.window_samples;
  while (ecg_.samples.size() >= w && abp_.samples.size() >= w) {
    // Both windows are the contiguous prefixes of their buffers; they are
    // read in place and consumed once the verdict is in.
    const std::span<const double> ecg_win(ecg_.samples.data(), w);
    const std::span<const double> abp_win(abp_.samples.data(), w);

    WindowReport report;
    report.window_index = stats_.windows_classified;
    if (detector_) {
      core::PortraitInput in;
      in.ecg = ecg_win;
      in.abp = abp_win;

      scratch_.clear();
      for (std::size_t p : ecg_.peaks) {
        if (p < w) scratch_.r_peaks.push_back(p);
      }
      for (std::size_t p : abp_.peaks) {
        if (p < w) scratch_.sys_peaks.push_back(p);
      }
      in.r_peaks = scratch_.r_peaks;
      in.sys_peaks = scratch_.sys_peaks;
      in.sample_rate_hz = physio::kDefaultRateHz;

      const core::DetectionResult verdict = detector_->classify(in, scratch_);
      report.altered = verdict.altered;
      report.decision_value = verdict.decision_value;
      report.tier = detector_->version();
    } else {
      // No model (load failing behind the breaker): the window is consumed
      // so the streams stay aligned, but the verdict is withheld rather
      // than fabricated.
      report.unscored = true;
      ++stats_.unscored_windows;
    }
    // Model-free defense in depth: the spectral cross-check still runs on
    // unscored windows, so a model outage does not blind the station to a
    // gross rate-mismatch hijack.
    if (config_.spectral_cross_check) {
      const double rate = physio::kDefaultRateHz;
      const double hr_ecg = signal::spectral_heart_rate_bpm(signal::Series(
          rate, std::vector<double>(ecg_win.begin(), ecg_win.end())));
      const double hr_abp = signal::spectral_heart_rate_bpm(signal::Series(
          rate, std::vector<double>(abp_win.begin(), abp_win.end())));
      if (hr_ecg > 0.0 && hr_abp > 0.0 &&
          std::abs(hr_ecg - hr_abp) > kHrMismatchBpm) {
        report.hr_mismatch = true;
        report.altered = true;
      }
    }
    // Gap runs are sorted, so the first one decides.
    for (const Stream* s : {&ecg_, &abp_}) {
      if (!s->gaps.empty() && s->gaps.front().begin < w) report.degraded = true;
    }
    if (config_.max_report_history > 0 &&
        reports_.size() >= config_.max_report_history) {
      // Drop-oldest retention: the buffer's capacity plateaus at the cap,
      // so long-running sessions stop allocating for reports.
      reports_.erase(reports_.begin(),
                     reports_.end() - (config_.max_report_history - 1));
    }
    reports_.push_back(report);
    ++stats_.windows_classified;
    if (report.altered) ++stats_.alerts;

    ecg_.consume(w);
    abp_.consume(w);
  }
}

namespace {

constexpr std::uint8_t kReportAltered = 1;
constexpr std::uint8_t kReportDegraded = 2;
constexpr std::uint8_t kReportHrMismatch = 4;
constexpr std::uint8_t kReportUnscored = 8;

}  // namespace

void BaseStation::export_state(io::StateWriter& w) const {
  // Geometry guard: a checkpoint only makes sense inside the same station
  // shape it was taken from.
  w.u32(static_cast<std::uint32_t>(config_.window_samples));
  w.u32(static_cast<std::uint32_t>(config_.samples_per_packet));
  w.u32(static_cast<std::uint32_t>(config_.max_buffered_windows));
  w.u64(config_.max_report_history);
  w.u32(config_.max_seq_jump);

  w.u64(stats_.packets_received);
  w.u64(stats_.duplicates_ignored);
  w.u64(stats_.malformed_rejected);
  w.u64(stats_.seq_rejected);
  w.u64(stats_.gaps_filled);
  w.u64(stats_.overflow_dropped);
  w.u64(stats_.windows_classified);
  w.u64(stats_.unscored_windows);
  w.u64(stats_.alerts);

  w.u32(static_cast<std::uint32_t>(reports_.size()));
  for (const WindowReport& rep : reports_) {
    w.u64(rep.window_index);
    w.u8(static_cast<std::uint8_t>((rep.altered ? kReportAltered : 0) |
                                   (rep.degraded ? kReportDegraded : 0) |
                                   (rep.hr_mismatch ? kReportHrMismatch : 0) |
                                   (rep.unscored ? kReportUnscored : 0)));
    w.f64(rep.decision_value);
    w.u8(static_cast<std::uint8_t>(rep.tier));
  }

  for (const Stream* s : {&ecg_, &abp_}) {
    const std::size_t n = s->samples.size();
    w.u32(s->next_seq);
    w.u32(static_cast<std::uint32_t>(n));
    w.f64s(s->samples);
    // The format keeps one flag byte per sample (1 = gap-filled).
    w.u32(static_cast<std::uint32_t>(n));
    std::size_t i = 0;
    for (const Gap& g : s->gaps) {
      for (; i < g.begin; ++i) w.u8(0);
      for (; i < g.end; ++i) w.u8(1);
    }
    for (; i < n; ++i) w.u8(0);
    w.u32(static_cast<std::uint32_t>(s->peaks.size()));
    for (std::size_t p : s->peaks) w.u64(p);
  }
}

void BaseStation::import_state(io::StateReader& r) {
  if (r.u32() != config_.window_samples ||
      r.u32() != config_.samples_per_packet ||
      r.u32() != config_.max_buffered_windows ||
      r.u64() != config_.max_report_history ||
      r.u32() != config_.max_seq_jump) {
    throw std::runtime_error(
        "BaseStation: checkpoint geometry does not match this station");
  }

  stats_.packets_received = r.u64();
  stats_.duplicates_ignored = r.u64();
  stats_.malformed_rejected = r.u64();
  stats_.seq_rejected = r.u64();
  stats_.gaps_filled = r.u64();
  stats_.overflow_dropped = r.u64();
  stats_.windows_classified = r.u64();
  stats_.unscored_windows = r.u64();
  stats_.alerts = r.u64();

  const std::uint32_t n_reports = r.u32();
  reports_.clear();
  reports_.reserve(n_reports);
  for (std::uint32_t i = 0; i < n_reports; ++i) {
    WindowReport rep;
    rep.window_index = r.u64();
    const std::uint8_t flags = r.u8();
    rep.altered = (flags & kReportAltered) != 0;
    rep.degraded = (flags & kReportDegraded) != 0;
    rep.hr_mismatch = (flags & kReportHrMismatch) != 0;
    rep.unscored = (flags & kReportUnscored) != 0;
    rep.decision_value = r.f64();
    rep.tier = static_cast<core::DetectorVersion>(r.u8());
    reports_.push_back(rep);
  }

  for (Stream* s : {&ecg_, &abp_}) {
    s->next_seq = r.u32();
    const std::uint32_t n_samples = r.u32();
    if (n_samples > bound()) {
      throw std::runtime_error("BaseStation: checkpoint residue overflows");
    }
    s->samples.resize(n_samples);
    r.f64s(s->samples);
    if (r.u32() != n_samples) {
      throw std::runtime_error(
          "BaseStation: checkpoint gap flags do not match its samples");
    }
    s->gaps.clear();
    for (std::size_t i = 0; i < n_samples; ++i) {
      if (r.u8() == 0) continue;
      if (!s->gaps.empty() && s->gaps.back().end == i) {
        ++s->gaps.back().end;
      } else {
        s->gaps.push_back({i, i + 1});
      }
    }
    const std::uint32_t n_peaks = r.u32();
    s->peaks.clear();
    s->peaks.reserve(n_peaks);
    for (std::uint32_t i = 0; i < n_peaks; ++i) {
      s->peaks.push_back(static_cast<std::size_t>(r.u64()));
    }
  }
}

}  // namespace sift::wiot
