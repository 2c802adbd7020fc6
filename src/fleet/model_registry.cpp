#include "fleet/model_registry.hpp"

#include <stdexcept>
#include <utility>

namespace sift::fleet {

namespace {

RegistryClock resolve_clock(RegistryClock clock) {
  if (clock) return clock;
  return [] { return std::chrono::steady_clock::now(); };
}

}  // namespace

ModelRegistry::ModelRegistry(ModelProvider provider, std::size_t capacity,
                             BreakerPolicy policy, RegistryClock clock)
    : provider_(std::move(provider)),
      capacity_(capacity),
      policy_(policy),
      clock_(resolve_clock(std::move(clock))) {
  if (!provider_) {
    throw std::invalid_argument("ModelRegistry: provider must be callable");
  }
  if (capacity_ == 0) {
    throw std::invalid_argument("ModelRegistry: capacity must be positive");
  }
}

ModelRegistry::ModelRegistry(TieredModelProvider provider, std::size_t capacity,
                             BreakerPolicy policy, RegistryClock clock)
    : tiered_provider_(std::move(provider)),
      capacity_(capacity),
      policy_(policy),
      clock_(resolve_clock(std::move(clock))) {
  if (!tiered_provider_) {
    throw std::invalid_argument("ModelRegistry: provider must be callable");
  }
  if (capacity_ == 0) {
    throw std::invalid_argument("ModelRegistry: capacity must be positive");
  }
}

std::shared_ptr<const core::UserModel> ModelRegistry::load(int user_id,
                                                           int tier) {
  if (tier == kDefaultTier) return provider_(user_id);
  return tiered_provider_(user_id, static_cast<core::DetectorVersion>(tier));
}

ModelRegistry::Lease ModelRegistry::acquire_locked(int user_id, int tier) {
  const Key key = make_key(user_id, tier);
  if (auto it = index_.find(key); it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return {it->second->second, AcquireStatus::kLoaded};
  }
  ++misses_;

  CircuitBreaker& breaker = breakers_.try_emplace(key, policy_).first->second;
  const auto now = clock_();
  if (!breaker.allow(now)) {
    return {nullptr, breaker.state() == CircuitBreaker::State::kClosed
                         ? AcquireStatus::kBackoff
                         : AcquireStatus::kBreakerOpen};
  }

  if (breaker.consecutive_failures() > 0) ++provider_retries_;
  std::shared_ptr<const core::UserModel> model;
  try {
    model = load(user_id, tier);
  } catch (...) {
    model = nullptr;
  }
  if (!model) {
    ++provider_failures_;
    breaker.record_failure(now);
    return {nullptr, AcquireStatus::kLoadFailed};
  }
  breaker.record_success();

  lru_.emplace_front(key, model);
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();  // sessions holding the shared_ptr keep it alive
    ++evictions_;
  }
  return {std::move(model), AcquireStatus::kLoaded};
}

int ModelRegistry::default_tier() const noexcept {
  return tiered_provider_ ? static_cast<int>(core::DetectorVersion::kOriginal)
                          : kDefaultTier;
}

ModelRegistry::Lease ModelRegistry::try_acquire(int user_id) {
  std::lock_guard lock(mu_);
  return acquire_locked(user_id, default_tier());
}

ModelRegistry::Lease ModelRegistry::try_acquire(int user_id,
                                                core::DetectorVersion version) {
  std::lock_guard lock(mu_);
  if (!tiered_provider_) return {nullptr, AcquireStatus::kUnavailable};
  return acquire_locked(user_id, static_cast<int>(version));
}

std::size_t ModelRegistry::warm_load(
    std::span<const int> user_ids,
    std::optional<core::DetectorVersion> version) {
  // 64 acquires per lock acquisition: large enough to amortise the lock,
  // small enough that foreground try_acquire traffic never waits long.
  constexpr std::size_t kBatch = 64;
  const int tier = version ? static_cast<int>(*version) : default_tier();
  std::size_t loaded = 0;
  for (std::size_t base = 0; base < user_ids.size(); base += kBatch) {
    const std::size_t end = std::min(base + kBatch, user_ids.size());
    std::lock_guard lock(mu_);
    if (version && !tiered_provider_) return loaded;
    for (std::size_t i = base; i < end; ++i) {
      if (acquire_locked(user_ids[i], tier).model) ++loaded;
    }
  }
  return loaded;
}

std::size_t ModelRegistry::resident() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::uint64_t ModelRegistry::hits() const {
  std::lock_guard lock(mu_);
  return hits_;
}

std::uint64_t ModelRegistry::misses() const {
  std::lock_guard lock(mu_);
  return misses_;
}

std::uint64_t ModelRegistry::evictions() const {
  std::lock_guard lock(mu_);
  return evictions_;
}

std::uint64_t ModelRegistry::provider_failures() const {
  std::lock_guard lock(mu_);
  return provider_failures_;
}

std::uint64_t ModelRegistry::provider_retries() const {
  std::lock_guard lock(mu_);
  return provider_retries_;
}

std::uint64_t ModelRegistry::breaker_opens() const {
  std::lock_guard lock(mu_);
  std::uint64_t opens = 0;
  for (const auto& [key, breaker] : breakers_) opens += breaker.times_opened();
  return opens;
}

std::size_t ModelRegistry::open_breakers() const {
  std::lock_guard lock(mu_);
  std::size_t open = 0;
  for (const auto& [key, breaker] : breakers_) {
    if (breaker.state() != CircuitBreaker::State::kClosed) ++open;
  }
  return open;
}

CircuitBreaker::State ModelRegistry::breaker_state(int user_id) const {
  std::lock_guard lock(mu_);
  const auto it = breakers_.find(make_key(user_id, default_tier()));
  return it == breakers_.end() ? CircuitBreaker::State::kClosed
                               : it->second.state();
}

CircuitBreaker::State ModelRegistry::breaker_state(
    int user_id, core::DetectorVersion version) const {
  std::lock_guard lock(mu_);
  const auto it = breakers_.find(make_key(user_id, static_cast<int>(version)));
  return it == breakers_.end() ? CircuitBreaker::State::kClosed
                               : it->second.state();
}

}  // namespace sift::fleet
