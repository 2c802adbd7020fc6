#include "core/features.hpp"

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/fixed_point.hpp"
#include "signal/stats.hpp"

namespace sift::core {
namespace {

// ---------------------------------------------------------------------------
// Scalar backends. Each provides construction from double, extraction to
// double, and the two libm operations the Original features need.
// ---------------------------------------------------------------------------

template <typename S>
struct ScalarOps;

template <>
struct ScalarOps<double> {
  static double from_double(double v) { return v; }
  static double to_double(double v) { return v; }
  static double sqrt(double v) { return v <= 0.0 ? 0.0 : std::sqrt(v); }
  static double atan2(double y, double x) { return std::atan2(y, x); }
};

template <>
struct ScalarOps<float> {
  static float from_double(double v) { return static_cast<float>(v); }
  static double to_double(float v) { return static_cast<double>(v); }
  static float sqrt(float v) { return v <= 0.0f ? 0.0f : std::sqrt(v); }
  static float atan2(float y, float x) { return std::atan2(y, x); }
};

// Instrumented double: identical numerics, but every arithmetic operation
// bumps the active OpCounts sink. Used by extract_features_counted.
struct Counted {
  double v = 0.0;
  static thread_local OpCounts* sink;

  friend Counted operator+(Counted a, Counted b) {
    if (sink) ++sink->add;
    return {a.v + b.v};
  }
  friend Counted operator-(Counted a, Counted b) {
    if (sink) ++sink->add;
    return {a.v - b.v};
  }
  friend Counted operator-(Counted a) { return {-a.v}; }
  friend Counted operator*(Counted a, Counted b) {
    if (sink) ++sink->mul;
    return {a.v * b.v};
  }
  friend Counted operator/(Counted a, Counted b) {
    if (sink) ++sink->div;
    return {a.v / b.v};
  }
  Counted& operator+=(Counted b) { return *this = *this + b; }
  friend auto operator<=>(Counted a, Counted b) { return a.v <=> b.v; }
  friend bool operator==(Counted a, Counted b) { return a.v == b.v; }
};

thread_local OpCounts* Counted::sink = nullptr;

template <>
struct ScalarOps<Counted> {
  static Counted from_double(double v) { return {v}; }
  static double to_double(Counted v) { return v.v; }
  static Counted sqrt(Counted v) {
    if (Counted::sink) ++Counted::sink->sqrt_calls;
    return {v.v <= 0.0 ? 0.0 : std::sqrt(v.v)};
  }
  static Counted atan2(Counted y, Counted x) {
    if (Counted::sink) ++Counted::sink->atan2_calls;
    return {std::atan2(y.v, x.v)};
  }
};

template <>
struct ScalarOps<Q16_16> {
  static Q16_16 from_double(double v) { return Q16_16::from_double(v); }
  static double to_double(Q16_16 v) { return v.to_double(); }
  static Q16_16 sqrt(Q16_16 v) { return v.sqrt(); }
  static Q16_16 atan2(Q16_16 y, Q16_16 x) { return Q16_16::atan2(y, x); }
};

// ---------------------------------------------------------------------------
// Generic feature computations, parameterised by backend.
// ---------------------------------------------------------------------------

// Slope guard shared by all backends: denominators smaller than the Q16.16
// resolution are clamped so a left-edge peak saturates rather than blowing
// up (see the header's conventions note).
constexpr double kMinDenominator = 1.0 / 65536.0;

template <typename S>
S safe_div(S num, S den) {
  using Ops = ScalarOps<S>;
  const S eps = Ops::from_double(kMinDenominator);
  const S zero = Ops::from_double(0.0);
  S d = den;
  if (d < zero) {
    if (-d < eps) d = -eps;
  } else if (d < eps) {
    d = eps;
  }
  return num / d;
}

// Streaming mean: sum / n without materialising the element list. The
// backend-operation sequence (one add per element, one final divide, each
// operand produced by the same from_double conversion) is identical to
// summing a pre-built std::vector<S>, so results — and Counted op totals —
// match the historical vector-based helpers bit for bit, with zero heap
// traffic.
template <typename S, typename Range, typename F>
S mean_over(const Range& r, F&& f) {
  using Ops = ScalarOps<S>;
  if (r.empty()) return Ops::from_double(0.0);
  S sum = Ops::from_double(0.0);
  for (const auto& e : r) sum += f(e);
  return sum / Ops::from_double(static_cast<double>(r.size()));
}

// The column-average curve read straight from the column counts: entry i
// is column_counts[i] / n, the same double for every reader.
struct ColumnAverages {
  std::span<const std::uint32_t> counts;
  double n = 1.0;

  std::size_t size() const noexcept { return counts.size(); }
  bool empty() const noexcept { return counts.empty(); }
  double operator[](std::size_t i) const noexcept {
    return static_cast<double>(counts[i]) / n;
  }
};

template <typename S>
S mean_of(const ColumnAverages& f) {
  using Ops = ScalarOps<S>;
  return mean_over<S>(f.counts, [&f](std::uint32_t c) {
    return Ops::from_double(static_cast<double>(c) / f.n);
  });
}

template <typename S>
S variance_of(const ColumnAverages& f) {
  using Ops = ScalarOps<S>;
  if (f.empty()) return Ops::from_double(0.0);
  const S m = mean_of<S>(f);
  return mean_over<S>(f.counts, [&](std::uint32_t c) {
    const S d = Ops::from_double(static_cast<double>(c) / f.n) - m;
    return d * d;
  });
}

// Paper's AUC formula over [a,b] = [0,1]:
//   (b-a)/(2N) * sum_{n=1..N} (f(x_n) + f(x_{n+1}))
// — algebraically the uniform trapezoid rule. Both the Original (described
// as "numerical integration via the trapezoidal method") and Simplified
// versions therefore compute the same value; they differed only in how the
// device code was written.
template <typename S>
S auc_of(const ColumnAverages& f) {
  using Ops = ScalarOps<S>;
  if (f.size() < 2) return Ops::from_double(0.0);
  S sum = Ops::from_double(0.0);
  for (std::size_t i = 0; i + 1 < f.size(); ++i) {
    sum += Ops::from_double(f[i]) + Ops::from_double(f[i + 1]);
  }
  const double n_intervals = static_cast<double>(f.size() - 1);
  return sum / Ops::from_double(2.0 * n_intervals);
}

// --- geometric features ----------------------------------------------------

template <typename S>
S mean_angle(const std::vector<Point>& pts) {
  using Ops = ScalarOps<S>;
  return mean_over<S>(pts, [](const Point& p) {
    return Ops::atan2(Ops::from_double(p.y), Ops::from_double(p.x));
  });
}

template <typename S>
S mean_slope(const std::vector<Point>& pts) {
  using Ops = ScalarOps<S>;
  return mean_over<S>(pts, [](const Point& p) {
    return safe_div(Ops::from_double(p.y), Ops::from_double(p.x));
  });
}

template <typename S>
S mean_origin_distance(const std::vector<Point>& pts, bool squared) {
  using Ops = ScalarOps<S>;
  return mean_over<S>(pts, [squared](const Point& p) {
    const S x = Ops::from_double(p.x);
    const S y = Ops::from_double(p.y);
    const S d2 = x * x + y * y;
    return squared ? d2 : Ops::sqrt(d2);
  });
}

template <typename S>
S mean_pair_distance(const std::vector<PeakPairPoints>& pairs, bool squared) {
  using Ops = ScalarOps<S>;
  return mean_over<S>(pairs, [squared](const PeakPairPoints& pp) {
    const S dx = Ops::from_double(pp.r.x) - Ops::from_double(pp.systolic.x);
    const S dy = Ops::from_double(pp.r.y) - Ops::from_double(pp.systolic.y);
    const S d2 = dx * dx + dy * dy;
    return squared ? d2 : Ops::sqrt(d2);
  });
}

// --- matrix features -------------------------------------------------------

// SFI is computed in exact 64-bit integer arithmetic and only the final
// quotient enters the backend; this mirrors what a careful MSP430
// implementation does (integer accumulate, one divide).
template <typename S>
S spatial_filling_index(const CountMatrix& m) {
  return ScalarOps<S>::from_double(m.spatial_filling_index());
}

template <typename S>
void extract_impl(const Portrait& portrait, const CountMatrix& matrix,
                  DetectorVersion version, FeatureVector& out) {
  using Ops = ScalarOps<S>;
  out.clear();

  if (version != DetectorVersion::kReduced) {
    const ColumnAverages col_avg{matrix.column_counts(),
                                 static_cast<double>(matrix.n())};
    out.push_back(Ops::to_double(spatial_filling_index<S>(matrix)));
    if (version == DetectorVersion::kOriginal) {
      out.push_back(
          Ops::to_double(Ops::sqrt(variance_of<S>(col_avg))));  // std dev
    } else {
      out.push_back(
          Ops::to_double(variance_of<S>(col_avg)));  // simplified: no sqrt
    }
    out.push_back(Ops::to_double(auc_of<S>(col_avg)));
  }

  const bool simplified = version != DetectorVersion::kOriginal;
  if (simplified) {
    out.push_back(Ops::to_double(mean_slope<S>(portrait.r_peak_points())));
    out.push_back(
        Ops::to_double(mean_slope<S>(portrait.systolic_peak_points())));
    out.push_back(Ops::to_double(
        mean_origin_distance<S>(portrait.r_peak_points(), true)));
    out.push_back(Ops::to_double(
        mean_origin_distance<S>(portrait.systolic_peak_points(), true)));
    out.push_back(
        Ops::to_double(mean_pair_distance<S>(portrait.peak_pairs(), true)));
  } else {
    out.push_back(Ops::to_double(mean_angle<S>(portrait.r_peak_points())));
    out.push_back(
        Ops::to_double(mean_angle<S>(portrait.systolic_peak_points())));
    out.push_back(Ops::to_double(
        mean_origin_distance<S>(portrait.r_peak_points(), false)));
    out.push_back(Ops::to_double(
        mean_origin_distance<S>(portrait.systolic_peak_points(), false)));
    out.push_back(
        Ops::to_double(mean_pair_distance<S>(portrait.peak_pairs(), false)));
  }
}

}  // namespace

const char* to_string(DetectorVersion v) noexcept {
  switch (v) {
    case DetectorVersion::kOriginal:
      return "Original";
    case DetectorVersion::kSimplified:
      return "Simplified";
    case DetectorVersion::kReduced:
      return "Reduced";
  }
  return "?";
}

const char* to_string(Arithmetic a) noexcept {
  switch (a) {
    case Arithmetic::kDouble:
      return "double";
    case Arithmetic::kFloat32:
      return "float32";
    case Arithmetic::kFixedQ16:
      return "Q16.16";
  }
  return "?";
}

std::vector<std::string> feature_names(DetectorVersion v) {
  std::vector<std::string> names;
  if (v != DetectorVersion::kReduced) {
    names.emplace_back("spatial_filling_index");
    names.emplace_back(v == DetectorVersion::kOriginal
                           ? "stddev_column_averages"
                           : "variance_column_averages");
    names.emplace_back("auc_column_averages");
  }
  if (v == DetectorVersion::kOriginal) {
    names.emplace_back("mean_r_peak_angle");
    names.emplace_back("mean_systolic_peak_angle");
    names.emplace_back("mean_r_origin_distance");
    names.emplace_back("mean_systolic_origin_distance");
    names.emplace_back("mean_r_systolic_distance");
  } else {
    names.emplace_back("mean_r_peak_slope");
    names.emplace_back("mean_systolic_peak_slope");
    names.emplace_back("mean_r_origin_distance_sq");
    names.emplace_back("mean_systolic_origin_distance_sq");
    names.emplace_back("mean_r_systolic_distance_sq");
  }
  return names;
}

void extract_features_into(const Portrait& portrait, const CountMatrix& matrix,
                           DetectorVersion version, Arithmetic arithmetic,
                           FeatureVector& out) {
  switch (arithmetic) {
    case Arithmetic::kDouble:
      return extract_impl<double>(portrait, matrix, version, out);
    case Arithmetic::kFloat32:
      return extract_impl<float>(portrait, matrix, version, out);
    case Arithmetic::kFixedQ16:
      return extract_impl<Q16_16>(portrait, matrix, version, out);
  }
  throw std::invalid_argument("extract_features: unknown arithmetic");
}

std::vector<double> extract_features(const Portrait& portrait,
                                     const CountMatrix& matrix,
                                     DetectorVersion version,
                                     Arithmetic arithmetic) {
  FeatureVector out;
  extract_features_into(portrait, matrix, version, arithmetic, out);
  return out.to_vector();
}

std::vector<double> extract_features(const Portrait& portrait,
                                     DetectorVersion version,
                                     Arithmetic arithmetic,
                                     std::size_t grid_n) {
  const CountMatrix matrix(portrait, grid_n);
  return extract_features(portrait, matrix, version, arithmetic);
}

std::vector<double> extract_features_counted(const Portrait& portrait,
                                             const CountMatrix& matrix,
                                             DetectorVersion version,
                                             OpCounts& counts) {
  FeatureVector out;
  Counted::sink = &counts;
  extract_impl<Counted>(portrait, matrix, version, out);
  Counted::sink = nullptr;
  return out.to_vector();
}

}  // namespace sift::core
