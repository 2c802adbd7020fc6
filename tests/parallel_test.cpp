// Contract of parallel::parallel_for, the pool every per-user loop runs
// through: each index once, the first exception on the caller, inline for
// n <= 1 and when nested, and never more live workers than width().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace sift::parallel {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 64u}) {
    std::vector<std::atomic<int>> runs(n);
    parallel_for(n, [&](std::size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "n = " << n << ", index " << i;
    }
  }
}

TEST(ParallelFor, WorkerIndexStaysBelowWidth) {
  constexpr std::size_t kN = 64;
  const std::size_t threads = width(kN);
  std::vector<std::size_t> worker_of(kN, threads);
  parallel_for(kN, [&](std::size_t i, std::size_t w) { worker_of[i] = w; });
  for (const std::size_t w : worker_of) EXPECT_LT(w, threads);
}

TEST(ParallelFor, FirstExceptionIsRethrownOnTheCaller) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(64,
                            [&](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 5) throw std::invalid_argument("five");
                            }),
               std::invalid_argument);
  // A throw stops further claims, so some indexes may never run, but the
  // throwing one did and every started thread has joined.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);

  // The exception is the one fn threw, message intact.
  try {
    parallel_for(3, [](std::size_t) { throw std::runtime_error("boom"); });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ParallelFor, RunsInlineForAtMostOneIndex) {
  const auto caller = std::this_thread::get_id();
  for (const std::size_t n : {0u, 1u}) {
    EXPECT_EQ(width(n), 1u);
    parallel_for(n, [&](std::size_t, std::size_t w) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(w, 0u);
    });
  }
}

TEST(ParallelFor, NestedCallRunsInlineOnItsWorker) {
  std::atomic<int> inner_runs{0};
  std::atomic<int> off_thread{0};
  parallel_for(8, [&](std::size_t) {
    EXPECT_EQ(width(8), 1u);
    const auto outer = std::this_thread::get_id();
    parallel_for(4, [&](std::size_t) {
      inner_runs.fetch_add(1);
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_runs.load(), 32);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ParallelFor, LiveWorkersNeverExceedTheCap) {
  // Each fn holds its slot briefly so the pool's workers overlap; the
  // high-water mark of fn bodies running at once is the pool's width.
  const auto observe = [](std::size_t n, std::size_t cap) {
    std::atomic<std::size_t> live{0};
    std::atomic<std::size_t> peak{0};
    parallel_for(
        n,
        [&](std::size_t) {
          const std::size_t now = live.fetch_add(1) + 1;
          std::size_t seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          live.fetch_sub(1);
        },
        cap);
    return peak.load();
  };
  EXPECT_LE(observe(64, 64), std::min<std::size_t>(64, usable_cores()));
  EXPECT_LE(observe(64, 2), 2u);
  EXPECT_EQ(observe(64, 1), 1u);
  EXPECT_LE(observe(3, 64), 3u);
  EXPECT_EQ(width(64, 2), std::min<std::size_t>(2, usable_cores()));
}

}  // namespace
}  // namespace sift::parallel
