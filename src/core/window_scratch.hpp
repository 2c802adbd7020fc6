// Scratch arena for the steady-state classification path.
//
// Every buffer the samples -> verdict pipeline needs per window lives here
// and is recycled across windows: after one warm-up window at a given
// window size, classifying through a WindowScratch performs zero heap
// allocations (the invariant tests/alloc_guard.hpp enforces — see
// DESIGN.md "Memory discipline"). Each stage rebuilds its part in place
// for every window, so nothing carries over from one window to the next:
// one arena serves any number of stations, as long as only one window is
// classified through it at a time. wiot::BaseStation therefore classifies
// through its thread's arena (thread_scratch) rather than owning one;
// classify_record keeps a local one.
#pragma once

#include <cstddef>
#include <vector>

#include "core/count_matrix.hpp"
#include "core/portrait.hpp"

namespace sift::core {

struct WindowScratch {
  Portrait portrait;            ///< rebuilt in place each window
  CountMatrix matrix;           ///< rebuilt in place each window
  std::vector<std::size_t> r_peaks;    ///< window-relative R-peak indexes
  std::vector<std::size_t> sys_peaks;  ///< window-relative systolic indexes

  /// Empties the peak buffers (capacity retained). The portrait and matrix
  /// are overwritten by their rebuild() calls, so they need no reset.
  void clear() noexcept {
    r_peaks.clear();
    sys_peaks.clear();
  }
};

/// The calling thread's arena, created on first use and kept until the
/// thread exits. A fleet worker classifies one session at a time, so the
/// sessions it owns share one arena instead of holding one each. Not
/// reentrant: a window must be classified completely before the same
/// thread starts another.
inline WindowScratch& thread_scratch() {
  thread_local WindowScratch scratch;
  return scratch;
}

}  // namespace sift::core
