// LRU cache of per-user detection models, hardened against provider
// failure.
//
// Millions of registered wearers cannot all keep their UserModel resident;
// a session only needs its model while traffic is flowing. The registry
// loads models on demand through a caller-supplied provider (disk, a
// provisioning service, or on-the-fly training in tests) and keeps the
// hottest `capacity` of them, handing out shared_ptrs so eviction never
// invalidates a session that is mid-window — the model stays alive until
// the last detector using it drops its reference.
//
// Providers fail in production (service restarts, corrupt artefacts), so
// every (user, tier) load is guarded by a CircuitBreaker: failed loads are
// retried with capped exponential backoff, N consecutive failures open the
// breaker (fail-fast, no provider call), and a half-open probe on a
// deadline heals it. try_acquire never throws — callers run the session
// unscored until the model arrives (see wiot::BaseStation's detector-less
// mode).
//
// A TieredModelProvider additionally serves the paper's Original /
// Simplified / Reduced versions of a user's model, which is what lets the
// engine walk sessions down the degradation ladder under load.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/trainer.hpp"
#include "fleet/breaker.hpp"

namespace sift::fleet {

/// Produces the model for a user on cache miss. Must be thread-safe or
/// pure; it is invoked under the registry lock (single-flight per miss).
using ModelProvider =
    std::function<std::shared_ptr<const core::UserModel>(int user_id)>;

/// Tier-aware provider: also serves the Simplified/Reduced artefacts of a
/// user so the engine can degrade under load. Same contract as
/// ModelProvider otherwise.
using TieredModelProvider = std::function<std::shared_ptr<const core::UserModel>(
    int user_id, core::DetectorVersion version)>;

/// Injectable time source (tests drive the breaker deadlines manually).
using RegistryClock = std::function<std::chrono::steady_clock::time_point()>;

class ModelRegistry {
 public:
  enum class AcquireStatus {
    kLoaded,       ///< model returned (cached or freshly loaded)
    kBackoff,      ///< recent failure; retry deadline not reached
    kBreakerOpen,  ///< breaker open (or half-open probe already in flight)
    kLoadFailed,   ///< provider threw or returned null on this attempt
    kUnavailable,  ///< tier requested but no tiered provider configured
  };

  struct Lease {
    std::shared_ptr<const core::UserModel> model;  ///< null unless kLoaded
    AcquireStatus status = AcquireStatus::kLoaded;
  };

  /// @throws std::invalid_argument if capacity == 0 or provider is empty.
  ModelRegistry(ModelProvider provider, std::size_t capacity,
                BreakerPolicy policy = {}, RegistryClock clock = {});
  ModelRegistry(TieredModelProvider provider, std::size_t capacity,
                BreakerPolicy policy = {}, RegistryClock clock = {});

  /// Fetches (loading if needed) and marks the model most-recently-used,
  /// through the backoff/breaker machinery; never throws. The
  /// default-tier overload serves the provider's natural artefact — on a
  /// tiered registry that is the Original tier, the same cache entry and
  /// breaker as try_acquire(user_id, kOriginal); the tier overload requires
  /// a TieredModelProvider.
  Lease try_acquire(int user_id);
  Lease try_acquire(int user_id, core::DetectorVersion version);

  /// Bulk pre-load after a cohort training run: walks @p user_ids through
  /// the normal acquire machinery (so breakers still guard bad artefacts)
  /// in bounded lock batches — concurrent try_acquire traffic interleaves
  /// between batches instead of stalling for the whole load. Ids beyond
  /// the LRU capacity simply evict earlier ones; warm-load in ascending id
  /// order leaves the highest ids resident. Returns how many ids loaded
  /// successfully. Requires a TieredModelProvider when @p version is set.
  std::size_t warm_load(std::span<const int> user_ids,
                        std::optional<core::DetectorVersion> version = {});

  /// True when construction supplied a TieredModelProvider, i.e. the
  /// degradation ladder has artefacts to step onto.
  bool tiered() const noexcept { return static_cast<bool>(tiered_provider_); }

  std::size_t resident() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

  /// Breaker observability. provider_failures counts throwing/null loads;
  /// provider_retries counts provider calls made while the key already had
  /// consecutive failures (i.e. genuine retry attempts); breaker_opens
  /// counts closed/half-open → open transitions; open_breakers is the
  /// current number of keys whose breaker is open.
  std::uint64_t provider_failures() const;
  std::uint64_t provider_retries() const;
  std::uint64_t breaker_opens() const;
  std::size_t open_breakers() const;

  /// State of the default-tier breaker for @p user_id (kClosed if the user
  /// has never failed).
  CircuitBreaker::State breaker_state(int user_id) const;
  CircuitBreaker::State breaker_state(int user_id,
                                      core::DetectorVersion version) const;

 private:
  /// Cache/breaker key: user id plus tier (kDefaultTier = the plain
  /// provider's natural artefact).
  static constexpr int kDefaultTier = -1;
  /// The tier a default-tier request caches under: kOriginal on a tiered
  /// registry, so warm_load(ids, kOriginal) warms try_acquire(id).
  int default_tier() const noexcept;
  using Key = std::int64_t;
  static Key make_key(int user_id, int tier) noexcept {
    return (static_cast<Key>(user_id) << 2) | static_cast<Key>(tier + 1);
  }

  using LruList = std::list<std::pair<Key, std::shared_ptr<const core::UserModel>>>;

  Lease acquire_locked(int user_id, int tier);
  std::shared_ptr<const core::UserModel> load(int user_id, int tier);

  ModelProvider provider_;
  TieredModelProvider tiered_provider_;
  std::size_t capacity_;
  BreakerPolicy policy_;
  RegistryClock clock_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<Key, LruList::iterator> index_;
  std::unordered_map<Key, CircuitBreaker> breakers_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t provider_failures_ = 0;
  std::uint64_t provider_retries_ = 0;
};

}  // namespace sift::fleet
