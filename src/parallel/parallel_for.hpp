// One work-claiming pool for every per-user loop.
//
// Start-up and the offline experiments do the same thing per user: build
// that user's record, train that user's model, classify that user's
// trace. The users are independent, so parallel_for(n, fn) runs fn(i)
// once for every index i in [0, n) over at most min(n, usable_cores())
// threads. Each thread claims the next unclaimed index from one shared
// counter, so a slow user never holds a fast one back. Results go to
// indexed slots the caller owns, which keeps the output independent of
// which thread ran which index: a parallel run is bit-identical to a
// serial one whenever fn(i) itself is deterministic.
//
// The calling thread is one of the workers, so a one-core host (or an
// affinity mask of one core), n <= 1, or a call from inside another
// parallel_for's fn runs everything inline on the caller and starts no
// thread. The first exception any fn throws stops further claims and is
// rethrown on the caller once every started thread has joined.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sift::parallel {

/// Cores this thread may run on: its affinity mask where the platform
/// exposes one (a process confined with taskset or sched_setaffinity sees
/// only its own cores), else the hardware thread count. At least 1.
inline std::size_t usable_cores() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace detail {
inline thread_local bool t_in_pool = false;
}  // namespace detail

/// Threads parallel_for(n, fn, cap) uses when called from this thread:
/// min(n, cap, usable_cores()), and 1 for n <= 1 or inside a pool worker.
/// Workers are numbered [0, width), the caller being worker 0.
inline std::size_t width(
    std::size_t n,
    std::size_t cap = std::numeric_limits<std::size_t>::max()) noexcept {
  if (n <= 1 || cap <= 1 || detail::t_in_pool) return 1;
  return std::min({n, cap, usable_cores()});
}

/// Runs fn(i) — or fn(i, worker), worker in [0, width(n, cap)) — once for
/// every i in [0, n). @p cap only narrows the pool for callers that carry
/// their own worker count (the cohort trainer's `workers`); it never
/// widens it past the usable cores.
/// @throws the first exception any fn threw, after every thread joined.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn,
                  std::size_t cap = std::numeric_limits<std::size_t>::max()) {
  const auto call = [&fn](std::size_t i, std::size_t worker) {
    if constexpr (std::is_invocable_v<Fn&, std::size_t, std::size_t>) {
      fn(i, worker);
    } else {
      fn(i);
    }
  };
  const std::size_t threads = width(n, cap);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) call(i, 0);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto work = [&](std::size_t worker) {
    detail::t_in_pool = true;
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        call(i, worker);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);  // stop further claims
      const std::lock_guard lock(error_mu);
      if (!error) error = std::current_exception();
    }
    detail::t_in_pool = false;
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(threads - 1);
    try {
      for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(work, w);
    } catch (const std::system_error&) {
      // Out of threads: the ones already started and the caller finish
      // every index between them.
    }
    work(0);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sift::parallel
