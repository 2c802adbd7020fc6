// One wearer's live detection state inside the fleet.
//
// A session is exactly what the paper runs on a single Amulet base
// station — packet reassembly plus the per-user SIFT detector — wrapped so
// thousands of them can coexist: the UserModel is *shared* (the detector
// references the registry's resident copy instead of owning one), and the
// reassembly buffers are bounded (BaseStation::Config::max_buffered_windows)
// but sized by what they hold: about one window per channel when the two
// streams arrive interleaved.
// Each session also owns (through its station) a core::WindowScratch arena,
// so steady-state classification in the worker loop allocates nothing —
// set Config::max_report_history to bound report retention and make the
// guarantee hold over unbounded session lifetimes.
//
// A session can exist *without* a model (provider failing behind the
// registry's circuit breaker): the station then emits unscored verdicts
// until install_detector heals it. The engine also records per-session
// health here — consecutive pipeline faults, quarantine state, and the
// load-shed tier — all mutated only by the shard's owning worker, so none
// of it needs synchronisation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/trainer.hpp"
#include "io/state.hpp"
#include "wiot/base_station.hpp"

namespace sift::fleet {

/// Per-channel ingest cursors: one past the highest packet seq this
/// session's worker has consumed. The durability layer checkpoints them;
/// recovery re-feeds packets with seq ≥ cursor and skips the rest.
struct SessionCursors {
  std::uint32_t ecg = 0;
  std::uint32_t abp = 0;
};

class Session {
 public:
  /// Fault-supervision state (see FleetEngine::process). Owned by the
  /// session, driven by the engine; serialized per shard.
  struct Health {
    std::size_t consecutive_faults = 0;  ///< pipeline throws since success
    bool quarantined = false;
    std::uint64_t faults_total = 0;
    std::uint64_t quarantine_dropped = 0;  ///< packets shed while poisoned
    std::uint64_t quarantine_entries = 0;
    std::uint64_t quarantine_exits = 0;
    std::size_t probe_countdown = 0;  ///< drops left before the next probe
    std::size_t shed_cooldown = 0;    ///< packets until next tier move
    std::uint64_t validation_rejects = 0;  ///< ingest-side rejects
    // Anti-replay accounting (see FleetConfig::anti_replay). Suspicion is a
    // leaky bucket: each sequence anomaly adds a fixed 16, each cleanly
    // processed packet drains one unit; crossing suspicion_threshold moves
    // the session into quarantine (verdicts withheld, probe-based exit).
    std::uint64_t seq_anomalies = 0;  ///< replay/spoof events on this session
    std::uint64_t suspicion = 0;      ///< leaky-bucket level
    std::uint64_t suspect_entries = 0;  ///< quarantines entered via suspicion
  };

  /// @p model may be null: the session then starts unscored and can be
  /// healed later via install_detector (the self-healing path).
  Session(std::shared_ptr<const core::UserModel> model,
          const wiot::BaseStation::Config& station_config)
      : station_(make_station(std::move(model), station_config)),
        home_tier_(station_.tier()) {}

  /// Feeds one reassembly/detection step. Not thread-safe; the engine
  /// guarantees a session is only ever touched by its shard's owner.
  void receive(const wiot::Packet& packet) { station_.receive(packet); }

  bool scored() const noexcept { return station_.has_detector(); }

  /// Installs (or replaces) the detector: model-load recovery and tier
  /// transitions both land here. The first install fixes the home tier.
  void install_detector(core::Detector detector) {
    const bool first = !station_.has_detector();
    station_.set_detector(std::move(detector));
    if (first) home_tier_ = station_.tier();
  }

  core::DetectorVersion tier() const noexcept { return station_.tier(); }
  /// The tier the session's model was provisioned at — load-shed recovery
  /// climbs back up to here, never past it.
  core::DetectorVersion home_tier() const noexcept { return home_tier_; }

  Health& health() noexcept { return health_; }
  const Health& health() const noexcept { return health_; }

  const wiot::BaseStation& station() const noexcept { return station_; }
  const wiot::BaseStation::Stats& stats() const noexcept {
    return station_.stats();
  }

  /// Advances the ingest cursor for every packet the worker delivers —
  /// including ones a quarantined session sheds, since those mutate
  /// checkpointed state and must not be re-fed after recovery.
  void note_packet(const wiot::Packet& packet) noexcept {
    std::uint32_t& c = packet.kind == wiot::ChannelKind::kEcg ? cursors_.ecg
                                                              : cursors_.abp;
    c = std::max(c, packet.seq + 1);
  }
  const SessionCursors& cursors() const noexcept { return cursors_; }

  /// Resume grace, runtime-only (a restart severs every connection and each
  /// reconnect re-arms): armed at the cursors handed to a reconnecting
  /// client, whose resent overlap the station dedupe sheds.
  void arm_resume_grace() noexcept {
    resume_grace_[0] = {cursors_.ecg, true, false};
    resume_grace_[1] = {cursors_.abp, true, false};
  }
  /// Whether the grace exempts `seq` (cursor `next`) from the replay check;
  /// call once per packet that may advance the cursor. A backward seq is a
  /// resend while the cursor has not moved since the arm, or if it is at
  /// most `window` below the handed-out cursor (the dead connection's
  /// in-flight tail may move the cursor on first). Forward packets, maybe
  /// that tail, keep the grace until a resend went behind; the next forward
  /// packet means the resend caught up, and the grace ends.
  bool resume_exempts(wiot::ChannelKind kind, std::uint32_t seq,
                      std::uint32_t next, std::uint32_t window) noexcept {
    ResumeGrace& g = resume_grace_[kind == wiot::ChannelKind::kEcg ? 0 : 1];
    if (!g.armed) return false;
    if (seq >= next) {
      g.armed = !g.resending;
      return false;
    }
    if (next != g.from && seq < g.from && g.from - seq > window) return false;
    g.resending = true;
    return true;
  }

  /// Serializes everything a restart needs to resume this session
  /// bit-identically: tier placement, health counters, ingest cursors, and
  /// the station's full reassembly state.
  void export_state(io::StateWriter& w) const {
    w.u8(scored() ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(tier()));
    w.u8(static_cast<std::uint8_t>(home_tier_));
    w.u32(cursors_.ecg);
    w.u32(cursors_.abp);
    w.u64(health_.consecutive_faults);
    w.u8(health_.quarantined ? 1 : 0);
    w.u64(health_.faults_total);
    w.u64(health_.quarantine_dropped);
    w.u64(health_.quarantine_entries);
    w.u64(health_.quarantine_exits);
    w.u64(health_.probe_countdown);
    w.u64(health_.shed_cooldown);
    w.u64(health_.validation_rejects);
    w.u64(health_.seq_anomalies);
    w.u64(health_.suspicion);
    w.u64(health_.suspect_entries);
    station_.export_state(w);
  }

  /// Checkpointed tier placement, reported back to the engine so it can
  /// reinstall the detector at the recorded rung when they differ.
  struct Restored {
    bool was_scored = false;
    core::DetectorVersion tier = core::DetectorVersion::kOriginal;
  };

  /// Inverse of export_state. The detector itself is not serialized (the
  /// registry re-provides it); home_tier_ is restored directly because
  /// install_detector would otherwise re-derive it from the fresh install.
  /// @throws std::runtime_error on truncated/mismatched state.
  Restored import_state(io::StateReader& r) {
    Restored out;
    out.was_scored = r.u8() != 0;
    out.tier = static_cast<core::DetectorVersion>(r.u8());
    home_tier_ = static_cast<core::DetectorVersion>(r.u8());
    cursors_.ecg = r.u32();
    cursors_.abp = r.u32();
    health_.consecutive_faults = static_cast<std::size_t>(r.u64());
    health_.quarantined = r.u8() != 0;
    health_.faults_total = r.u64();
    health_.quarantine_dropped = r.u64();
    health_.quarantine_entries = r.u64();
    health_.quarantine_exits = r.u64();
    health_.probe_countdown = static_cast<std::size_t>(r.u64());
    health_.shed_cooldown = static_cast<std::size_t>(r.u64());
    health_.validation_rejects = r.u64();
    health_.seq_anomalies = r.u64();
    health_.suspicion = r.u64();
    health_.suspect_entries = r.u64();
    station_.import_state(r);
    return out;
  }

 private:
  static wiot::BaseStation make_station(
      std::shared_ptr<const core::UserModel> model,
      const wiot::BaseStation::Config& config) {
    if (model) return wiot::BaseStation(core::Detector(std::move(model)), config);
    return wiot::BaseStation(config);
  }

  wiot::BaseStation station_;
  core::DetectorVersion home_tier_;
  Health health_;
  SessionCursors cursors_;
  struct ResumeGrace { std::uint32_t from; bool armed, resending; };
  ResumeGrace resume_grace_[2] = {};  ///< [ecg, abp]
};

}  // namespace sift::fleet
