// Lock-free single-producer/single-consumer ring: the hot-path handoff of
// the thread-per-core fleet. Each (producer slot, worker) edge owns one
// ring, so neither side ever takes a mutex to move an envelope — the
// producer writes a slot and releases `tail_`; the consumer acquires
// `tail_`, drains, and releases `head_`. Both sides keep a cached copy of
// the other's index so the common case (ring neither full nor empty)
// touches only its own cache line.
//
//   producer:  swap(slots_[tail & mask], v);  tail_.store(tail+1, release)
//   consumer:  swap(slots_[head & mask], v);  head_.store(head+1, release)
//
// Elements are swapped, never moved out, so the slots double as a buffer
// pool that circulates in both directions: a push hands the producer back
// whatever the consumer last left in that slot (for a fleet envelope, the
// sample/peak buffers of a packet it already classified), and a pop leaves
// the consumer's spent element behind for the producer to reuse. Each slot
// is still written only by the side that owns it under the acquire/release
// pair above, so the recycling adds no synchronisation.
//
// Capacity is rounded up to a power of two; indexes are free-running
// (wrap-around is handled by masking, fullness by `tail - head > mask`).
//
// Drop-oldest backpressure cannot be done by the producer (evicting the
// head would make it a second consumer), so it is re-phrased as a *shed
// request*: on a full ring the producer bumps `shed_requests_` and
// retries; the consumer honours pending requests at the start of its next
// sweep by discarding that many envelopes from the head (counting them as
// dropped). Net effect is a drop-oldest queue — the freshest packet is
// always accepted, the oldest ones pay — without breaking the
// single-consumer invariant.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sift::fleet {

template <typename T>
class SpscRing {
 public:
  /// @p capacity is rounded up to the next power of two (min 2).
  /// @throws std::invalid_argument on zero, or when the rounding would
  /// overflow std::size_t.
  explicit SpscRing(std::size_t capacity) {
    constexpr std::size_t kMaxCapacity =
        (std::numeric_limits<std::size_t>::max() >> 1) + 1;
    if (capacity == 0 || capacity > kMaxCapacity) {
      throw std::invalid_argument(
          "SpscRing: capacity must be non-zero and round up to a power of "
          "two that fits size_t");
    }
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Swaps @p v into the tail slot on success, so @p v
  /// comes back holding what the consumer last left there; leaves it
  /// untouched and returns false when the ring is full.
  bool try_push(T& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {  // looks full: refresh the cache
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    std::swap(slots_[tail & mask_], v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: swaps up to out.size() elements into out[0, n), leaving
  /// the old contents of out in the freed slots, and returns n. One acquire
  /// covers the whole batch.
  std::size_t pop_n(std::span<T> out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t n = readable(head, out.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(out[i], slots_[(head + i) & mask_]);
    }
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer side: discards up to @p max elements from the head (shed
  /// execution). They stay in their slots, where the producer's next pushes
  /// pick them up for reuse.
  std::size_t discard_n(std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t n = readable(head, max);
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Producer side: ask the consumer to evict one envelope from the head
  /// on its next sweep (drop-oldest without a second consumer).
  void request_shed() {
    shed_requests_.fetch_add(1, std::memory_order_release);
  }

  /// Consumer side: claims all pending shed requests.
  std::size_t take_shed_requests() {
    if (shed_requests_.load(std::memory_order_relaxed) == 0) return 0;
    return shed_requests_.exchange(0, std::memory_order_acq_rel);
  }

  /// Approximate when racing the other side; exact when quiescent.
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  /// Consumer side: how many of up to @p max elements past @p head are
  /// readable (refreshing the cached tail only when it reads empty).
  std::size_t readable(std::size_t head, std::size_t max) {
    std::size_t available = cached_tail_ - head;
    if (available == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      available = cached_tail_ - head;
    }
    return available < max ? available : max;
  }

  // Producer-owned line: free-running write index + cached consumer index.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
  // Consumer-owned line: free-running read index + cached producer index.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
  // Backpressure side-channel (both sides, cold unless the ring is full).
  alignas(64) std::atomic<std::size_t> shed_requests_{0};
  std::vector<T> slots_;
  std::size_t mask_ = 0;
};

}  // namespace sift::fleet
