// Lock-free single-producer/single-consumer ring: the hot-path handoff of
// the thread-per-core fleet. Each (producer slot, worker) edge owns one
// ring, so neither side ever takes a mutex to move an envelope — the
// producer writes a slot and releases `tail_`; the consumer acquires
// `tail_`, drains, and releases `head_`. Both sides keep a cached copy of
// the other's index so the common case (ring neither full nor empty)
// touches only its own cache line.
//
//   producer:  slots_[tail & mask] = move(v);  tail_.store(tail+1, release)
//   consumer:  v = move(slots_[head & mask]);  head_.store(head+1, release)
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
#include <stdexcept>
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

  /// Producer side. Moves from @p v on success; leaves it untouched and
  /// returns false when the ring is full.
  bool try_push(T& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {  // looks full: refresh the cache
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: moves up to @p max elements into @p out (appended),
  /// returning how many were taken. One acquire covers the whole batch.
  std::size_t pop_n(std::vector<T>& out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t available = cached_tail_ - head;
    if (available == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      available = cached_tail_ - head;
      if (available == 0) return 0;
    }
    const std::size_t n = available < max ? available : max;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[(head + i) & mask_]));
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer side: discards up to @p max elements from the head (shed
  /// execution), handing each to @p recycle before releasing the slot.
  template <typename Fn>
  std::size_t discard_n(std::size_t max, Fn&& recycle) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t available = cached_tail_ - head;
    if (available == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      available = cached_tail_ - head;
    }
    const std::size_t n = available < max ? available : max;
    for (std::size_t i = 0; i < n; ++i) {
      recycle(std::move(slots_[(head + i) & mask_]));
    }
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
