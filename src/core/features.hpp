// The three SIFT feature extractors (Table I and Section III of the paper).
//
//   Original   — 8 features: spatial filling index, standard deviation of
//                the count-matrix column averages, trapezoidal AUC of the
//                column averages, mean R-peak angle, mean systolic-peak
//                angle, mean R-to-origin distance, mean systolic-to-origin
//                distance, mean R-to-systolic distance. Needs sqrt/atan2
//                (libm on the device).
//   Simplified — 8 libm-free counterparts: variance instead of standard
//                deviation, the closed-form summation for the AUC, slope
//                y/x instead of angle, squared distances instead of
//                distances.
//   Reduced    — only the 5 simplified *geometric* features.
//
// Every extractor can run on three arithmetic backends, modelling the
// platforms in Table II: double (the MATLAB gold standard), float32 (the
// Amulet's software floating point), and Q16.16 fixed point (the cheapest
// MSP430-class arithmetic; used by the arithmetic ablation).
//
// Conventions shared by all versions (documented once here):
//   * Averages over an empty peak set are 0 — a flatlined window has no
//     R peaks, and the all-zero geometric block is itself a strong attack
//     signature.
//   * Slopes divide by max(|x|, 2^-16) so a peak on the portrait's left
//     edge saturates instead of producing infinities (mirrors the Q16.16
//     backend's saturating divide).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/count_matrix.hpp"
#include "core/feature_vector.hpp"
#include "core/portrait.hpp"

namespace sift::core {

enum class DetectorVersion { kOriginal, kSimplified, kReduced };
enum class Arithmetic { kDouble, kFloat32, kFixedQ16 };

/// 8 for Original/Simplified, 5 for Reduced.
constexpr std::size_t feature_count(DetectorVersion v) noexcept {
  return v == DetectorVersion::kReduced ? 5 : 8;
}

/// The paper's Table II versions double as a graceful-degradation ladder:
/// Original (full accuracy, libm) → Simplified (libm-free) → Reduced (5
/// geometric features, cheapest). tier_rank orders them by cost; the fleet
/// engine walks the ladder under load-shed pressure (see fleet/engine.hpp).
constexpr int tier_rank(DetectorVersion v) noexcept {
  return static_cast<int>(v);
}

/// Every version, in tier_rank order.
inline constexpr std::array<DetectorVersion, 3> kTiers = {
    DetectorVersion::kOriginal, DetectorVersion::kSimplified,
    DetectorVersion::kReduced};

/// Next-cheaper version, or nullopt at the bottom (Reduced).
constexpr std::optional<DetectorVersion> tier_below(DetectorVersion v) noexcept {
  switch (v) {
    case DetectorVersion::kOriginal:
      return DetectorVersion::kSimplified;
    case DetectorVersion::kSimplified:
      return DetectorVersion::kReduced;
    case DetectorVersion::kReduced:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Next-richer version, or nullopt at the top (Original).
constexpr std::optional<DetectorVersion> tier_above(DetectorVersion v) noexcept {
  switch (v) {
    case DetectorVersion::kOriginal:
      return std::nullopt;
    case DetectorVersion::kSimplified:
      return DetectorVersion::kOriginal;
    case DetectorVersion::kReduced:
      return DetectorVersion::kSimplified;
  }
  return std::nullopt;
}

const char* to_string(DetectorVersion v) noexcept;
const char* to_string(Arithmetic a) noexcept;

/// Human-readable names, index-aligned with extract_features output.
std::vector<std::string> feature_names(DetectorVersion v);

/// Allocation-free extraction into a fixed-capacity feature vector: the
/// hot-path primitive (column averages are read from the matrix's column
/// counts as they are needed, at any grid size). Bit-identical to
/// extract_features on the same inputs. @p out is overwritten.
void extract_features_into(const Portrait& portrait, const CountMatrix& matrix,
                           DetectorVersion version, Arithmetic arithmetic,
                           FeatureVector& out);

/// Extracts the feature vector for one portrait. The count matrix must have
/// been built from the same portrait (callers that need several versions
/// per window reuse one matrix — this is what the on-device app does).
/// Values are computed in the requested backend and returned as doubles.
std::vector<double> extract_features(const Portrait& portrait,
                                     const CountMatrix& matrix,
                                     DetectorVersion version,
                                     Arithmetic arithmetic);

/// Convenience overload that builds the n x n count matrix internally;
/// @p grid_n must be the grid @p portrait was built at.
std::vector<double> extract_features(const Portrait& portrait,
                                     DetectorVersion version,
                                     Arithmetic arithmetic = Arithmetic::kDouble,
                                     std::size_t grid_n = kDefaultGridSize);

/// Arithmetic-operation counts of one feature extraction — the input to the
/// Amulet energy model (sift::amulet), which multiplies them by
/// MSP430-software-float cycle costs. Exact dynamic counts, measured by
/// running the extractor on an instrumented scalar type.
struct OpCounts {
  std::uint64_t add = 0;    ///< floating additions + subtractions
  std::uint64_t mul = 0;
  std::uint64_t div = 0;
  std::uint64_t sqrt_calls = 0;
  std::uint64_t atan2_calls = 0;
  std::uint64_t int_ops = 0;  ///< 16-bit integer ALU ops (fetch/bookkeeping)

  std::uint64_t total() const noexcept {
    return add + mul + div + sqrt_calls + atan2_calls + int_ops;
  }
  OpCounts& operator+=(const OpCounts& o) noexcept {
    add += o.add;
    mul += o.mul;
    div += o.div;
    sqrt_calls += o.sqrt_calls;
    atan2_calls += o.atan2_calls;
    int_ops += o.int_ops;
    return *this;
  }
};

/// Extracts features exactly as extract_features(..., Arithmetic::kDouble)
/// while accumulating operation counts into @p counts.
std::vector<double> extract_features_counted(const Portrait& portrait,
                                             const CountMatrix& matrix,
                                             DetectorVersion version,
                                             OpCounts& counts);

}  // namespace sift::core
