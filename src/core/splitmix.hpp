// splitmix64 and the stateless fault coin built on it.
//
// Every deterministic schedule in the tree — fleet and wire fault
// injection, packet-level stream attacks, window dedup buckets and shard
// placement — hashes with this one mixer, so a decision is a pure function
// of its keys and replays bit-identically regardless of call order or
// thread interleaving. tests/splitmix_test.cpp pins the outputs: changing
// a constant here silently re-rolls every chaos schedule and re-shards
// every session.
#pragma once

#include <concepts>
#include <cstdint>

namespace sift::core {

/// splitmix64's output finaliser (Stafford variant 13): a cheap 64-bit
/// avalanche with no additive step, so mix64(0) == 0.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One splitmix64 step: the golden-ratio gamma add, then the finaliser.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  return mix64(x + 0x9e3779b97f4a7c15ULL);
}

/// The top 53 bits of @p h as a double in [0, 1).
constexpr double uniform01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The right fold splitmix64(k0 ^ splitmix64(k1 ^ … splitmix64(kn))).
template <std::convertible_to<std::uint64_t>... Rest>
constexpr std::uint64_t hash_chain(std::uint64_t k0, Rest... rest) noexcept {
  if constexpr (sizeof...(Rest) == 0) {
    return splitmix64(k0);
  } else {
    return splitmix64(k0 ^ hash_chain(rest...));
  }
}

/// True with @p probability, as a pure function of (seed, keys...). The
/// last key is the fault kind, so each kind's coin is independent at the
/// same position: coin(p, seed, user, seq, kind) for the fleet injector,
/// coin(p, seed, conn, offset, kind) on the wire, coin(p, seed, index,
/// kind) for stream attacks.
template <std::convertible_to<std::uint64_t>... Keys>
constexpr bool coin(double probability, std::uint64_t seed,
                    Keys... keys) noexcept {
  return probability > 0.0 &&
         uniform01(hash_chain(seed, keys...)) < probability;
}

}  // namespace sift::core
