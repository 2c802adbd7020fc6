// Unit + stress coverage for the lock-free SPSC ring that carries every
// envelope of the thread-per-core fleet (and, by swapping, the spent
// envelopes' buffers back). The stress tests are the TSan targets: a
// relaxed/acquire/release bug here corrupts verdicts fleet-wide.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
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
  std::vector<int> batch(16, -1);
  EXPECT_EQ(ring.pop_n(std::span(batch).first(1)), 0u);
  EXPECT_EQ(ring.pop_n(batch), 0u);
  EXPECT_EQ(batch, std::vector<int>(16, -1)) << "an empty pop swaps nothing";
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

  std::string out;
  ASSERT_EQ(ring.pop_n(std::span(&out, 1)), 1u);
  EXPECT_EQ(out, "payload-0");
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
      int v = -1;
      ASSERT_EQ(ring.pop_n(std::span(&v, 1)), 1u);
      EXPECT_EQ(v, next_pop++);
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
  std::vector<int> batch(6, -1);
  EXPECT_EQ(ring.pop_n(std::span(batch).first(4)), 4u);
  EXPECT_EQ(ring.pop_n(std::span(batch).subspan(4)), 2u)
      << "second call takes the remainder";
  ASSERT_EQ(batch.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(batch[i], i);
}

TEST(SpscRingTest, DiscardNRecyclesFromTheHead) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  EXPECT_EQ(ring.discard_n(3), 3u);
  EXPECT_EQ(ring.size(), 2u);
  int v = -1;
  ASSERT_EQ(ring.pop_n(std::span(&v, 1)), 1u);
  EXPECT_EQ(v, 3) << "survivors keep their order";
  EXPECT_EQ(ring.discard_n(10), 1u)
      << "discard is bounded by what is actually queued";

  // Discarded elements stay in their slots: once the tail wraps back onto
  // them, pushes hand them to the producer for reuse.
  std::vector<int> returned;
  for (int i = 0; i < 8; ++i) {
    int fresh = 100 + i;
    ASSERT_TRUE(ring.try_push(fresh));
    returned.push_back(fresh);
  }
  EXPECT_EQ(returned, (std::vector<int>{0, 0, 0, 0, 1, 2, -1, 4}))
      << "slots 5..7 were never written, slots 0..2 and 4 held the "
         "discards, and slot 3 holds what pop_n left behind";
}

// The swap contract end to end: the element a push hands back is exactly
// the one the consumer's pop_n left in that slot — the path by which spent
// packet buffers travel back to the producer.
TEST(SpscRingTest, PushHandsBackWhatPopNLeftInTheSlot) {
  SpscRing<std::string> ring(2);
  std::string a = "packet-a";
  std::string b = "packet-b";
  ASSERT_TRUE(ring.try_push(a));
  ASSERT_TRUE(ring.try_push(b));
  EXPECT_TRUE(a.empty()) << "a cold slot hands back a default element";

  std::vector<std::string> spent{"spent-0", "spent-1"};
  ASSERT_EQ(ring.pop_n(spent), 2u);
  EXPECT_EQ(spent, (std::vector<std::string>{"packet-a", "packet-b"}));

  std::string c = "packet-c";
  ASSERT_TRUE(ring.try_push(c));
  EXPECT_EQ(c, "spent-0");
  std::string d = "packet-d";
  ASSERT_TRUE(ring.try_push(d));
  EXPECT_EQ(d, "spent-1");

  std::string out = "spent-2";
  ASSERT_EQ(ring.pop_n(std::span(&out, 1)), 1u);
  EXPECT_EQ(out, "packet-c");
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
  std::vector<std::uint64_t> scratch(64);
  const auto drain_both = [&] {
    while (const std::size_t n = ring.pop_n(scratch)) {
      from_ring.insert(from_ring.end(), scratch.begin(),
                       scratch.begin() + static_cast<std::ptrdiff_t>(n));
    }
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
    std::vector<std::uint64_t> batch(8);
    std::uint64_t expect = 0;
    while (expect < kCount) {
      const std::size_t n = ring.pop_n(batch);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (const std::uint64_t v : std::span(batch).first(n)) {
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
    std::vector<std::uint64_t> batch(4);
    while (!stop.load(std::memory_order_acquire) || ring.size() > 0) {
      const std::size_t shed = ring.take_shed_requests();
      if (shed > 0) {
        recycled.fetch_add(ring.discard_n(shed), std::memory_order_relaxed);
      }
      const std::size_t n = ring.pop_n(batch);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      popped.fetch_add(n, std::memory_order_relaxed);
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
