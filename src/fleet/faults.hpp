// Deterministic fault injection for the fleet runtime.
//
// The chaos suite needs to prove the engine survives everything a hostile
// body-area network and a flaky model service can produce — and needs the
// schedule to be *reproducible*, so a failing seed replays exactly. Every
// per-packet decision is therefore stateless: a splitmix64 hash of
// (seed, user, seq, fault-kind) drives each coin flip, which makes the
// schedule independent of thread interleaving; only the aggregate counters
// are shared state (atomics).
//
// Injection points:
//   * packets   — corrupt_packet() flips sample exponent bits to non-finite
//                 values, zeroes payloads to NaN, truncates, or skews the
//                 sequence number past the wraparound guard. Wired into
//                 wiot::LossyChannel::set_fault_hook or applied directly
//                 before FleetEngine::ingest. Every injected payload fault
//                 is detectable by wiot::validate_packet, so the chaos test
//                 can assert rejects == injections *exactly*.
//   * provider  — wrap_provider() throws FaultInjected (optionally after a
//                 stall) for targeted users, exercising the registry's
//                 backoff + circuit breaker.
//   * worker    — maybe_throw_in_worker() throws on the per-packet path for
//                 targeted users (simulating a poisoned session), which is
//                 what drives quarantine; on_worker_dequeue() models
//                 per-shard overload bursts by stalling the worker and/or
//                 forcing the shed-check's observed queue depth, which
//                 drives the detector-tier degradation ladder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "fleet/model_registry.hpp"
#include "wiot/packet.hpp"

namespace sift::fleet {

/// The exception every injected software fault throws — distinct from real
/// failure types so tests can tell injected faults from genuine bugs.
struct FaultInjected : std::runtime_error {
  explicit FaultInjected(const char* what) : std::runtime_error(what) {}
};

struct FaultConfig {
  std::uint64_t seed = 1;

  // --- payload corruption (per targeted packet, independent coins) -------
  std::vector<int> payload_users;     ///< empty = no packet faults
  double nan_probability = 0.0;       ///< NaN/Inf samples
  double corrupt_probability = 0.0;   ///< exponent-bit flips (also non-finite)
  double truncate_probability = 0.0;  ///< short payload
  double seq_skew_probability = 0.0;  ///< sequence number past the guard

  // --- model-provider faults --------------------------------------------
  std::vector<int> provider_fail_users;  ///< loads throw for these users
  /// First N loads per user throw, then succeed (SIZE_MAX = always fail).
  std::size_t provider_failures_per_user = static_cast<std::size_t>(-1);
  std::chrono::milliseconds provider_stall{0};  ///< stall before throwing

  // --- worker-path faults ------------------------------------------------
  std::vector<int> worker_throw_users;  ///< per-packet path throws
  /// First N processed packets per user throw, then the session behaves
  /// (lets tests drive quarantine entry *and* probe-based exit).
  std::size_t worker_throws_per_user = static_cast<std::size_t>(-1);

  // --- per-shard overload bursts ----------------------------------------
  std::vector<std::size_t> overload_shards;  ///< empty = no bursts
  /// Burst window in per-shard dequeue indexes [from, until). Dequeues are
  /// serialized per shard (one owning worker), so the window is exactly
  /// reproducible. until = SIZE_MAX covers the whole run.
  std::size_t overload_from_dequeue = 0;
  std::size_t overload_until_dequeue = static_cast<std::size_t>(-1);
  /// Queue depth the load-shed check observes during the burst (0 = leave
  /// the real depth alone and only stall).
  std::size_t overload_forced_depth = 0;
  std::chrono::milliseconds overload_stall{0};  ///< worker stall per dequeue
};

/// Aggregate injection counts (what actually fired, for exact assertions).
struct FaultCounts {
  std::uint64_t nan_samples = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t seq_skewed = 0;
  std::uint64_t provider_throws = 0;
  std::uint64_t worker_throws = 0;
  std::uint64_t overload_dequeues = 0;

  std::uint64_t payload_total() const noexcept {
    return nan_samples + corrupted + truncated + seq_skewed;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const noexcept { return config_; }

  /// Applies at most one payload fault to @p packet (first kind whose coin
  /// lands, in a fixed order) and returns true if the packet was mutated.
  /// Decisions are a pure function of (seed, user, seq, kind).
  bool corrupt_packet(int user_id, wiot::Packet& packet);

  /// Wraps a provider so targeted users' loads stall-and-throw on schedule.
  TieredModelProvider wrap_provider(TieredModelProvider inner);
  ModelProvider wrap_provider(ModelProvider inner);

  /// Worker-loop hook, called once per dequeued envelope before the
  /// detection path runs. Stalls during an overload burst; returns the
  /// forced queue depth while the burst is active (nullopt otherwise).
  std::optional<std::size_t> on_worker_dequeue(std::size_t shard);

  /// Per-packet-path software fault: throws FaultInjected for targeted
  /// users until their budget is exhausted.
  void maybe_throw_in_worker(int user_id);

  bool targets_payload(int user_id) const noexcept;
  bool targets_worker(int user_id) const noexcept;
  bool targets_provider(int user_id) const noexcept;
  bool targets_shard(std::size_t shard) const noexcept;

  FaultCounts counts() const;

 private:
  FaultConfig config_;

  std::atomic<std::uint64_t> nan_samples_{0};
  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<std::uint64_t> truncated_{0};
  std::atomic<std::uint64_t> seq_skewed_{0};
  std::atomic<std::uint64_t> provider_throws_{0};
  std::atomic<std::uint64_t> worker_throws_{0};
  std::atomic<std::uint64_t> overload_dequeues_{0};

  std::mutex mu_;  ///< guards the per-user/per-shard budget maps
  std::unordered_map<int, std::size_t> provider_fails_;
  std::unordered_map<int, std::size_t> worker_fails_;
  std::unordered_map<std::size_t, std::size_t> shard_dequeues_;
};

}  // namespace sift::fleet
