// Unit + stress coverage for the lock-free SPSC ring that carries every
// envelope of the thread-per-core fleet. The stress tests are the TSan
// targets: a relaxed/acquire/release bug here corrupts verdicts fleet-wide.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/spsc_ring.hpp"

namespace sift::fleet {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

// Zero is not a ring. Past 2^63 the power-of-two doubling would wrap to
// zero and never terminate, so any capacity whose rounding overflows must
// throw as well.
TEST(SpscRingTest, OutOfRangeCapacityIsRejected) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const std::size_t capacity : {std::size_t{0}, kMax, (kMax >> 1) + 2}) {
    EXPECT_THROW(SpscRing<int>{capacity}, std::invalid_argument) << capacity;
  }
}

TEST(SpscRingTest, EmptyRingPopsNothing) {
  SpscRing<int> ring(4);
  std::vector<int> batch;
  EXPECT_EQ(ring.pop_n(batch, 1), 0u);
  EXPECT_EQ(ring.pop_n(batch, 16), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRingTest, FullRingRejectsPushAndLeavesValueIntact) {
  SpscRing<std::string> ring(4);
  for (int i = 0; i < 4; ++i) {
    std::string v = "payload-" + std::to_string(i);
    ASSERT_TRUE(ring.try_push(v));
  }
  std::string extra = "must-survive-a-failed-push";
  EXPECT_FALSE(ring.try_push(extra));
  EXPECT_EQ(extra, "must-survive-a-failed-push")
      << "a rejected push must not consume the value";
  EXPECT_EQ(ring.size(), 4u);

  std::vector<std::string> out;
  ASSERT_EQ(ring.pop_n(out, 1), 1u);
  EXPECT_EQ(out[0], "payload-0");
  EXPECT_TRUE(ring.try_push(extra)) << "one pop frees exactly one slot";
}

TEST(SpscRingTest, WrapAroundPreservesFifoOrder) {
  SpscRing<int> ring(4);
  int next_push = 0;
  int next_pop = 0;
  // Push/pop far past the capacity so the free-running indexes wrap the
  // mask many times; order must hold throughout.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) {
      int v = next_push++;
      ASSERT_TRUE(ring.try_push(v));
    }
    for (int i = 0; i < 3; ++i) {
      std::vector<int> v;
      ASSERT_EQ(ring.pop_n(v, 1), 1u);
      EXPECT_EQ(v[0], next_pop++);
    }
  }
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRingTest, PopNDrainsInOrderAndRespectsMax) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  std::vector<int> batch;
  EXPECT_EQ(ring.pop_n(batch, 4), 4u);
  EXPECT_EQ(ring.pop_n(batch, 4), 2u) << "second call takes the remainder";
  ASSERT_EQ(batch.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(batch[i], i);
}

TEST(SpscRingTest, DiscardNRecyclesFromTheHead) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  std::vector<int> recycled;
  EXPECT_EQ(ring.discard_n(3, [&](int&& v) { recycled.push_back(v); }), 3u);
  EXPECT_EQ(recycled, (std::vector<int>{0, 1, 2}));
  std::vector<int> v;
  ASSERT_EQ(ring.pop_n(v, 1), 1u);
  EXPECT_EQ(v[0], 3) << "survivors keep their order";
  EXPECT_EQ(ring.discard_n(10, [](int&&) {}), 1u)
      << "discard is bounded by what is actually queued";
}

TEST(SpscRingTest, ShedRequestsAccumulateAndClaimOnce) {
  SpscRing<int> ring(2);
  EXPECT_EQ(ring.take_shed_requests(), 0u);
  ring.request_shed();
  ring.request_shed();
  ring.request_shed();
  EXPECT_EQ(ring.take_shed_requests(), 3u);
  EXPECT_EQ(ring.take_shed_requests(), 0u) << "claims are consumed";
}

// The ring must deliver the exact same stream as a plain FIFO: feed it and
// a std::deque the same input and compare outputs element-wise.
TEST(SpscRingTest, BitIdenticalToDequeReference) {
  SpscRing<std::uint64_t> ring(256);
  std::deque<std::uint64_t> queue;
  std::uint32_t state = 0x9E3779B9u;
  std::vector<std::uint64_t> from_ring;
  std::vector<std::uint64_t> from_queue;
  std::vector<std::uint64_t> scratch;
  const auto drain_both = [&] {
    scratch.clear();
    while (ring.pop_n(scratch, 64) > 0) {
    }
    from_ring.insert(from_ring.end(), scratch.begin(), scratch.end());
    from_queue.insert(from_queue.end(), queue.begin(), queue.end());
    queue.clear();
  };
  for (int i = 0; i < 5000; ++i) {
    state = state * 1664525u + 1013904223u;  // deterministic LCG
    const std::uint64_t value =
        (static_cast<std::uint64_t>(state) << 16) |
        static_cast<std::uint64_t>(i);
    std::uint64_t v1 = value;
    ASSERT_TRUE(ring.try_push(v1));
    queue.push_back(value);
    if ((state & 7u) == 0) drain_both();  // drain in irregular batches
  }
  drain_both();
  ASSERT_EQ(from_ring.size(), from_queue.size());
  ASSERT_EQ(from_ring.size(), 5000u);
  for (std::size_t i = 0; i < from_ring.size(); ++i) {
    ASSERT_EQ(from_ring[i], from_queue[i]) << "diverged at element " << i;
  }
}

// TSan target: a real producer thread against a real consumer thread with
// a deliberately tiny ring, so every push/pop interleaving (empty, full,
// wrap) is exercised millions of times. The consumer checks strict FIFO
// and a running checksum; any torn read or missed release trips one or
// the other (or TSan itself).
TEST(SpscRingStress, ProducerConsumerOrderAndChecksum) {
  constexpr std::uint64_t kCount = 1'000'000;
  SpscRing<std::uint64_t> ring(16);
  std::uint64_t pushed_sum = 0;
  std::uint64_t popped_sum = 0;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    std::vector<std::uint64_t> batch;
    std::uint64_t expect = 0;
    while (expect < kCount) {
      batch.clear();
      if (ring.pop_n(batch, 8) == 0) {
        std::this_thread::yield();
        continue;
      }
      for (const std::uint64_t v : batch) {
        ASSERT_EQ(v, expect) << "FIFO order violated";
        popped_sum += v * 2654435761u;
        ++expect;
      }
    }
    done.store(true, std::memory_order_release);
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    std::uint64_t v = i;
    while (!ring.try_push(v)) std::this_thread::yield();
    pushed_sum += i * 2654435761u;
  }
  consumer.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_EQ(pushed_sum, popped_sum);
  EXPECT_EQ(ring.size(), 0u);
}

// TSan target for the backpressure side-channel: producer sheds on full,
// consumer honours requests with discard_n. Conservation must hold:
// popped + recycled == pushed.
TEST(SpscRingStress, ShedUnderPressureConservesEveryElement) {
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring(8);
  std::atomic<std::uint64_t> recycled{0};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    std::vector<std::uint64_t> batch;
    while (!stop.load(std::memory_order_acquire) || ring.size() > 0) {
      const std::size_t shed = ring.take_shed_requests();
      if (shed > 0) {
        recycled.fetch_add(
            ring.discard_n(shed, [](std::uint64_t&&) {}),
            std::memory_order_relaxed);
      }
      batch.clear();
      if (ring.pop_n(batch, 4) == 0) {
        std::this_thread::yield();
        continue;
      }
      popped.fetch_add(batch.size(), std::memory_order_relaxed);
    }
  });
  std::uint64_t pushed = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    std::uint64_t v = i;
    // Mirror the engine's kDropOldest loop: request a shed and retry.
    while (!ring.try_push(v)) {
      ring.request_shed();
      std::this_thread::yield();
    }
    ++pushed;
  }
  stop.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(popped.load() + recycled.load() +
                static_cast<std::uint64_t>(ring.size()),
            pushed);
  EXPECT_EQ(ring.size(), 0u) << "consumer drained before exiting";
}

}  // namespace
}  // namespace sift::fleet
