// Heap-allocation counting for zero-allocation invariant tests.
//
// Including this header in a test binary replaces the global operator
// new/delete family with malloc-backed versions that bump a thread-local
// counter on every allocation. AllocGuard is an RAII scope that samples the
// counter, so a test can assert that a region of code — e.g. one
// steady-state classified window — performed exactly zero heap allocations.
//
// Include it in at most ONE translation unit per binary (each sift_test
// executable is a single TU, so in practice: just include it). Counters are
// thread-local on purpose: fleet tests drive Session::receive on the test
// thread while replay producers allocate packets on their own threads, and
// only the measured thread's allocations should count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace sift::testing {

inline thread_local std::uint64_t g_thread_allocs = 0;
inline thread_local std::uint64_t g_thread_alloc_bytes = 0;

/// RAII scope: count() reports how many times this thread called a global
/// allocation function since construction (or the last reset()), bytes()
/// how many bytes those calls asked for.
class AllocGuard {
 public:
  AllocGuard() { reset(); }

  std::uint64_t count() const noexcept { return g_thread_allocs - start_; }
  std::uint64_t bytes() const noexcept {
    return g_thread_alloc_bytes - start_bytes_;
  }
  void reset() noexcept {
    start_ = g_thread_allocs;
    start_bytes_ = g_thread_alloc_bytes;
  }

 private:
  std::uint64_t start_ = 0;
  std::uint64_t start_bytes_ = 0;
};

inline void* counted_alloc(std::size_t n) {
  ++g_thread_allocs;
  g_thread_alloc_bytes += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

inline void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  ++g_thread_allocs;
  g_thread_alloc_bytes += n;
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace sift::testing

void* operator new(std::size_t n) { return sift::testing::counted_alloc(n); }
void* operator new[](std::size_t n) { return sift::testing::counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++sift::testing::g_thread_allocs;
  sift::testing::g_thread_alloc_bytes += n;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++sift::testing::g_thread_allocs;
  sift::testing::g_thread_alloc_bytes += n;
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return sift::testing::counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return sift::testing::counted_aligned_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
