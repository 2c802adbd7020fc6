// Synthetic cohort replay: the fleet's load generator.
//
// Builds a reusable fixture — K trained models plus per-session packet
// streams (both channels, time-interleaved, exactly what the WIoT sensors
// emit) — and replays it through a FleetEngine from one or more producer
// threads. Sessions share the K physiologies/models, which is also what
// exercises the model registry's LRU path: user ids are many, distinct
// artefacts are few.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/trainer.hpp"
#include "fleet/engine.hpp"
#include "wiot/packet.hpp"

namespace sift::fleet {

struct ReplayConfig {
  std::size_t sessions = 32;        ///< concurrent wearers
  double seconds = 12.0;            ///< trace length per session
  std::size_t distinct_users = 4;   ///< physiologies (and models) to train
  double train_seconds = 120.0;     ///< Δ for each model
  std::size_t samples_per_packet = 180;
  std::uint64_t seed = 2017;
  /// Train every detector tier (Original/Simplified/Reduced) per distinct
  /// user so provider_tiered() can feed the load-shed degradation ladder.
  /// Triples the training cost; leave off unless the test needs tiers.
  bool train_all_tiers = false;
};

/// Expensive to build (trains models, synthesises traces); build once and
/// replay many times. Records, models and streams are built one user (or
/// session) per usable core through parallel::parallel_for, and equal a
/// serial build's byte for byte.
class ReplayFixture {
 public:
  /// @throws std::invalid_argument if sessions or distinct_users is 0.
  static ReplayFixture build(const ReplayConfig& config);

  /// Models only, no packet streams — what `siftctl serve` needs: the
  /// gateway provisions detectors, the wire delivers the packets.
  /// @throws std::invalid_argument if distinct_users is 0.
  static ReplayFixture build_models_only(ReplayConfig config);

  /// user_id → model[user_id % distinct_users], shared (never copied).
  ModelProvider provider() const;

  /// Tier-aware provider for the load-shed ladder. Requires
  /// config.train_all_tiers; @throws std::logic_error otherwise.
  TieredModelProvider provider_tiered() const;

  std::size_t sessions() const noexcept { return packets_.size(); }
  std::size_t total_packets() const noexcept { return total_packets_; }
  /// Time-ordered interleave of both channels for one session.
  const std::vector<wiot::Packet>& session_packets(std::size_t s) const {
    return packets_.at(s);
  }
  const ReplayConfig& config() const noexcept { return config_; }

 private:
  ReplayConfig config_;
  std::vector<std::shared_ptr<const core::UserModel>> models_;
  /// tiered_models_[tier_rank][k]; empty unless train_all_tiers.
  std::vector<std::vector<std::shared_ptr<const core::UserModel>>>
      tiered_models_;
  std::vector<std::vector<wiot::Packet>> packets_;
  std::size_t total_packets_ = 0;
};

struct ReplayResult {
  std::chrono::steady_clock::duration elapsed{};  ///< feed start → drained
  std::uint64_t packets_offered = 0;
  std::uint64_t windows_classified = 0;
};

/// Deterministic per-session packet streams (both channels, time-ordered
/// interleave) for @p config — the exact streams a ReplayFixture built
/// from the same config carries. Factored out so a load-driver client can
/// synthesize the wire traffic without paying for model training: serve
/// and drive built from one config agree packet-for-packet, which is what
/// makes the closed loop comparable against in-process ingest.
std::vector<std::vector<wiot::Packet>> build_session_streams(
    const ReplayConfig& config);

/// Feeds every session's packets through @p engine from @p producers
/// threads (sessions are partitioned across producers; each session's
/// packets stay in order, which the engine's per-user FIFO turns into
/// deterministic verdicts), then drains the engine and reports wall time.
/// When @p injector is non-null each offered packet first passes through
/// FaultInjector::corrupt_packet — the radio-side chaos path.
///
/// Recovery passes the restored per-user @p cursors: every packet whose
/// (pristine) sequence number is below its session's checkpointed cursor
/// for that channel is skipped — exactly the packets whose effects the
/// checkpoint already contains — and the injector re-corrupts the rest on
/// the same deterministic schedule as the original run. Sessions absent
/// from @p cursors are fed from the start. packets_offered counts only the
/// packets actually offered.
ReplayResult replay_through(
    FleetEngine& engine, const ReplayFixture& fixture, std::size_t producers,
    FaultInjector* injector = nullptr,
    const std::unordered_map<int, SessionCursors>& cursors = {});

/// Single-threaded reference: runs each session's packet stream through a
/// plain BaseStation. The fleet stress test compares engine verdicts
/// against this, window for window.
std::vector<wiot::BaseStation::Stats> single_thread_reference(
    const ReplayFixture& fixture, const wiot::BaseStation::Config& station);

}  // namespace sift::fleet
