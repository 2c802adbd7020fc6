// Dispatch: the levels this build registers are fixed at compile time
// (SSE2 is the x86-64 baseline, so there is nothing to probe at runtime).
// Resolve the SIFT_SIMD_LEVEL override once and publish the chosen kernel
// table through an atomic pointer; set_active_level() exists so tests and
// benchmarks can force every registered level through the same code.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernel_support.hpp"
#include "simd/simd.hpp"

namespace sift::simd {
namespace {

constexpr Level kLevels[] = {
#if defined(__x86_64__) || defined(_M_X64)
    Level::kSse2,
#endif
    Level::kScalar,
};

bool is_available(Level level) noexcept {
  for (const Level l : kLevels) {
    if (l == level) return true;
  }
  return false;
}

/// SIFT_SIMD_LEVEL if set, valid, and registered here; otherwise the best
/// registered level. A bad value is diagnosed once rather than silently
/// dropped — it usually means a typo in a deployment script.
const Kernels& resolve_initial() noexcept {
  Level choice = kLevels[0];
  if (const char* env = std::getenv("SIFT_SIMD_LEVEL"); env && *env) {
    bool matched = false;
    for (const Level level : {Level::kScalar, Level::kSse2}) {
      if (std::strcmp(env, to_string(level)) == 0) {
        matched = true;
        if (is_available(level)) {
          choice = level;
        } else {
          std::fprintf(stderr,
                       "sift_simd: SIFT_SIMD_LEVEL=%s not supported on this "
                       "host, using %s\n",
                       env, to_string(choice));
        }
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr,
                   "sift_simd: unknown SIFT_SIMD_LEVEL=%s "
                   "(expected scalar|sse2), using %s\n",
                   env, to_string(choice));
    }
  }
  return kernels(choice);
}

std::atomic<const Kernels*>& active_slot() noexcept {
  static std::atomic<const Kernels*> slot{&resolve_initial()};
  return slot;
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
  }
  return "unknown";
}

std::span<const Level> available_levels() noexcept { return kLevels; }

const Kernels& kernels([[maybe_unused]] Level level) noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kSse2) return sse2_kernels();
#endif
  return scalar_kernels();
}

const Kernels& active() noexcept { return *active_slot().load(std::memory_order_relaxed); }

Level active_level() noexcept { return active().level; }

bool set_active_level(Level level) noexcept {
  if (!is_available(level)) return false;
  active_slot().store(&kernels(level), std::memory_order_relaxed);
  return true;
}

}  // namespace sift::simd
