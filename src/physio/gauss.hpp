// The Gaussian bump the ECG waves and the ABP notch/rebound are made of.
#pragma once

#include <cmath>

namespace sift::physio {

/// exp(-0.5 * d * d). exp underflows to exactly +0 for every argument
/// below about -745.13 (the true value is under half the smallest
/// subnormal), so below -750 this returns +0 without calling it and every
/// term it scales keeps its bits. A sample lies many widths away from
/// most of the waves it is summed over, so this skips most of the
/// synthesisers' exp calls.
inline double gauss(double d) {
  const double arg = -0.5 * d * d;
  return arg < -750.0 ? 0.0 : std::exp(arg);
}

}  // namespace sift::physio
