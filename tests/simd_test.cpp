// Cross-level bit-identity suite for the SIMD kernel layer.
//
// The dispatch contract (src/simd/simd.hpp) says every level — scalar and,
// on x86-64, SSE2 — produces bit-identical results on identical input,
// NaN/Inf propagation included. These tests run every kernel at every
// level the build registers against the scalar table and compare raw bit
// patterns, over random data and adversarial inputs (NaN, infinities,
// denormals, signed zero, empty and odd-length buffers). A second group
// pins the kernels to the original textbook formulas so the SIMD layer
// cannot drift away from the pre-SIMD pipeline it replaced, and a third
// pins the registry itself, so a silent fall-back to scalar fails a test.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "simd/simd.hpp"

namespace {

using sift::simd::Kernels;
using sift::simd::Level;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

// The sizes sweep every tail shape of a 4-wide blocked loop.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,   5,   7,  8,
                                         9,  12, 15, 16, 17,  31,  64, 100,
                                         255, 1023};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

::testing::AssertionResult BitEq(double a, double b) {
  if (bits(a) == bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex << bits(a) << " vs "
         << bits(b) << ")";
}

::testing::AssertionResult BitEq(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i]) != bits(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " != " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> random_vector(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

/// Sprinkles adversarial values over a random base so vector lanes and
/// scalar tails both see them.
std::vector<double> adversarial_vector(std::size_t n, std::uint32_t seed) {
  std::vector<double> v = random_vector(n, seed);
  const double specials[] = {kNan, kInf, -kInf, kDenorm, -kDenorm, -0.0, 0.0};
  for (std::size_t i = 0; i < n; i += 3) {
    v[i] = specials[(i / 3) % std::size(specials)];
  }
  return v;
}

class SimdLevelTest : public ::testing::TestWithParam<Level> {
 protected:
  const Kernels& k() const { return sift::simd::kernels(GetParam()); }
  const Kernels& ref() const { return sift::simd::kernels(Level::kScalar); }
};

TEST_P(SimdLevelTest, TableReportsItsLevel) {
  EXPECT_EQ(k().level, GetParam());
}

TEST_P(SimdLevelTest, DotMatchesScalarBitwise) {
  for (std::size_t n : kSizes) {
    for (std::uint32_t seed : {1u, 2u}) {
      const auto a = seed == 1 ? random_vector(n, 10 + seed)
                               : adversarial_vector(n, 10 + seed);
      const auto b = random_vector(n, 90 + seed);
      EXPECT_TRUE(BitEq(k().dot(a.data(), b.data(), n),
                        ref().dot(a.data(), b.data(), n)))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(SimdLevelTest, NanReductionsReturnTheCanonicalQuietNan) {
  // +NaN in lane 0 and inf + -inf (which yields -NaN on x86) in lane 3:
  // the lanes meet in the combine, where operand order would pick the
  // sign. Also a lone -NaN input, and a tail-only NaN.
  const std::uint64_t canonical = bits(kNan);
  const double neg_nan = std::copysign(kNan, -1.0);
  const std::vector<std::vector<double>> inputs = {
      {kNan, 1.0, 2.0, kInf, 3.0, 4.0, 5.0, -kInf, 6.0},
      {neg_nan, 1.0, 2.0, 3.0, 4.0},
      {1.0, 2.0, 3.0, 4.0, kInf, -kInf},
  };
  for (const auto& x : inputs) {
    const auto mv = k().mean_var(x.data(), x.size());
    EXPECT_EQ(bits(mv.mean), canonical);
    EXPECT_EQ(bits(mv.variance), canonical);
    const std::vector<double> ones(x.size(), 1.0);
    EXPECT_EQ(bits(k().dot(x.data(), ones.data(), x.size())), canonical);
    EXPECT_EQ(bits(k().dot(ones.data(), x.data(), x.size())), canonical);
  }
}

TEST_P(SimdLevelTest, AxpyMatchesScalarBitwise) {
  for (std::size_t n : kSizes) {
    const auto x = adversarial_vector(n, 3);
    auto y0 = random_vector(n, 4);
    auto y1 = y0;
    k().axpy(2.5, x.data(), y0.data(), n);
    ref().axpy(2.5, x.data(), y1.data(), n);
    EXPECT_TRUE(BitEq(y0, y1)) << "n=" << n;
  }
}

TEST_P(SimdLevelTest, MinMaxMatchesScalarBitwise) {
  for (std::size_t n : kSizes) {
    for (std::uint32_t seed : {5u, 6u}) {
      const auto x = seed == 5 ? random_vector(n, seed)
                               : adversarial_vector(n, seed);
      const auto got = k().min_max(x.data(), n);
      const auto want = ref().min_max(x.data(), n);
      EXPECT_TRUE(BitEq(got.min, want.min)) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(BitEq(got.max, want.max)) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(SimdLevelTest, MinMaxExactOnFiniteData) {
  // For finite data the blocked scan must equal the true min/max, not just
  // agree across levels.
  const auto x = random_vector(257, 7);
  const auto got = k().min_max(x.data(), x.size());
  double mn = x[0], mx = x[0];
  for (double v : x) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_TRUE(BitEq(got.min, mn));
  EXPECT_TRUE(BitEq(got.max, mx));
}

TEST_P(SimdLevelTest, MeanVarMatchesScalarBitwise) {
  for (std::size_t n : kSizes) {
    for (std::uint32_t seed : {8u, 9u}) {
      const auto x = seed == 8 ? random_vector(n, seed)
                               : adversarial_vector(n, seed);
      const auto got = k().mean_var(x.data(), n);
      const auto want = ref().mean_var(x.data(), n);
      EXPECT_TRUE(BitEq(got.mean, want.mean)) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(BitEq(got.variance, want.variance))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(SimdLevelTest, ScaleShiftMatchesScalarBitwise) {
  for (std::size_t n : kSizes) {
    const auto x = adversarial_vector(n, 11);
    const auto shift = random_vector(n, 12);
    auto scale = random_vector(n, 13);
    for (double& s : scale) {
      if (s == 0.0) s = 1.0;
    }
    std::vector<double> out0(n, -1.0), out1(n, -1.0);
    k().scale_shift(x.data(), shift.data(), scale.data(), out0.data(), n);
    ref().scale_shift(x.data(), shift.data(), scale.data(), out1.data(), n);
    EXPECT_TRUE(BitEq(out0, out1)) << "n=" << n;
  }
}

TEST_P(SimdLevelTest, SquareMatchesScalarBitwiseAndInPlace) {
  for (std::size_t n : kSizes) {
    const auto x = adversarial_vector(n, 17);
    std::vector<double> out0(n, -1.0), out1(n, -1.0);
    k().square(x.data(), out0.data(), n);
    ref().square(x.data(), out1.data(), n);
    EXPECT_TRUE(BitEq(out0, out1)) << "n=" << n;

    auto inplace = x;
    k().square(inplace.data(), inplace.data(), n);
    EXPECT_TRUE(BitEq(inplace, out1)) << "in-place n=" << n;
  }
}

TEST_P(SimdLevelTest, FivePointDerivativeMatchesScalarBitwise) {
  for (std::size_t n : kSizes) {
    const auto x = adversarial_vector(n, 18);
    std::vector<double> out0(n, -1.0), out1(n, -1.0);
    k().five_point_derivative(x.data(), out0.data(), n);
    ref().five_point_derivative(x.data(), out1.data(), n);
    EXPECT_TRUE(BitEq(out0, out1)) << "n=" << n;
  }
}

TEST_P(SimdLevelTest, FivePointDerivativeMatchesTextbookFormula) {
  // The formula the pre-SIMD pipeline used, taps clamped to x[0] on the
  // left edge — the kernel must reproduce it bit-for-bit.
  const auto x = random_vector(103, 19);
  std::vector<double> out(x.size());
  k().five_point_derivative(x.data(), out.data(), x.size());
  auto tap = [&x](std::ptrdiff_t i) {
    return x[i < 0 ? 0 : static_cast<std::size_t>(i)];
  };
  for (std::size_t n = 0; n < x.size(); ++n) {
    const auto i = static_cast<std::ptrdiff_t>(n);
    const double want =
        (2.0 * tap(i) + tap(i - 1) - tap(i - 3) - 2.0 * tap(i - 4)) / 8.0;
    ASSERT_TRUE(BitEq(out[n], want)) << "index " << n;
  }
}

TEST_P(SimdLevelTest, MovingWindowIntegralMatchesOriginalSemantics) {
  for (std::size_t n : {0u, 1u, 5u, 149u, 150u, 151u, 600u}) {
    for (std::size_t window : {1u, 2u, 5u, 150u}) {
      const auto x = random_vector(n, 20 + static_cast<std::uint32_t>(window));
      std::vector<double> out(n, -1.0), want(n, 0.0);
      k().moving_window_integral(x.data(), window, out.data(), n);
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += x[i];
        if (i >= window) acc -= x[i - window];
        want[i] = acc / static_cast<double>(i + 1 < window ? i + 1 : window);
      }
      EXPECT_TRUE(BitEq(out, want)) << "n=" << n << " window=" << window;
    }
  }
}

TEST_P(SimdLevelTest, GridCellsMatchScalarBitwise) {
  // Every channel-range shape the portrait can hand the kernel: ordinary,
  // degenerate (flatline: zero, and the negative range NaN-laced min/max
  // can produce), infinite and NaN.
  struct Range {
    double shift;
    double scale;
  };
  const Range ranges[] = {{-10.0, 20.0}, {0.25, 3.0}, {3.0, 0.0},
                          {1.0, -2.0},   {-kInf, kInf}, {0.0, kNan}};
  // The textbook formula the kernel implements, for the scalar reference.
  auto coord = [](double x, Range r, std::size_t n_grid) {
    const double u = r.scale <= 0.0 ? 0.5 : (x - r.shift) / r.scale;
    double v = u * static_cast<double>(n_grid);
    if (!(v > 0.0)) v = 0.0;
    const double top = static_cast<double>(n_grid - 1);
    return static_cast<std::uint32_t>(v > top ? top : v);
  };
  // 65535 is the largest side: i * n + j reaches 2^32 - 65537.
  for (std::size_t n_grid : {1u, 3u, 50u, 257u, 65535u}) {
    for (std::size_t n : kSizes) {
      auto a = adversarial_vector(n, 21);
      const auto b = random_vector(n, 22);
      // Samples exactly at the range ends: x == 1.0 after normalising
      // must land in the last cell.
      if (n >= 3) {
        a[n - 1] = 10.0;
        a[n / 2] = -10.0;
      }
      for (const Range ra : ranges) {
        for (const Range rb : ranges) {
          std::vector<std::uint32_t> got(n, 0xDEADBEEF), want(n, 0xDEADBEEF);
          k().grid_cells(a.data(), b.data(), ra.shift, ra.scale, rb.shift,
                         rb.scale, n_grid, got.data(), n);
          ref().grid_cells(a.data(), b.data(), ra.shift, ra.scale, rb.shift,
                           rb.scale, n_grid, want.data(), n);
          ASSERT_EQ(got, want) << "n_grid=" << n_grid << " n=" << n
                               << " scale_a=" << ra.scale
                               << " scale_b=" << rb.scale;
          for (std::size_t t = 0; t < n; ++t) {
            ASSERT_EQ(want[t], coord(a[t], ra, n_grid) * n_grid +
                                   coord(b[t], rb, n_grid))
                << "sample " << t;
          }
        }
      }
      if (n >= 3) {
        std::vector<std::uint32_t> got(n);
        k().grid_cells(a.data(), b.data(), -10.0, 20.0, -10.0, 20.0, n_grid,
                       got.data(), n);
        EXPECT_EQ(got[n - 1] / n_grid, n_grid - 1)
            << "x == 1.0 -> last column";
        EXPECT_EQ(got[n / 2] / n_grid, 0u);
      }
    }
  }
}

TEST_P(SimdLevelTest, MaskedMeanVarMatchesScalarBitwise) {
  std::mt19937 rng(33);
  for (std::size_t col_n : {8u, 64u, 255u}) {
    const auto col = random_vector(col_n, 40 + static_cast<std::uint32_t>(col_n));
    for (std::size_t sel_n : {0u, 1u, 3u, 4u, 7u, 33u, 200u}) {
      // Duplicate and out-of-order indices are legal; the kernel must walk
      // them in selection order, not column order.
      std::uniform_int_distribution<std::uint32_t> pick(
          0, static_cast<std::uint32_t>(col_n - 1));
      std::vector<std::uint32_t> idx(sel_n);
      for (auto& i : idx) i = pick(rng);
      const auto got = k().masked_mean_var(col.data(), idx.data(), sel_n);
      const auto want = ref().masked_mean_var(col.data(), idx.data(), sel_n);
      EXPECT_TRUE(BitEq(got.mean, want.mean)) << "sel_n=" << sel_n;
      EXPECT_TRUE(BitEq(got.variance, want.variance)) << "sel_n=" << sel_n;
      if (sel_n == 0) {
        EXPECT_TRUE(BitEq(got.mean, 0.0));
        EXPECT_TRUE(BitEq(got.variance, 0.0));
      }
    }
  }
}

TEST_P(SimdLevelTest, MaskedMeanVarMatchesRowOrderScalerFit) {
  // The columnar trainer relies on this kernel reproducing the exact
  // accumulator sequence of ml::StandardScaler::fit: a plain sequential
  // sum over selected rows, then a plain sequential sum of squared
  // deviations. Pin that here so a future "optimised" kernel cannot
  // silently break model bit-identity.
  const auto col = random_vector(100, 44);
  std::vector<std::uint32_t> idx = {17, 3, 3, 99, 0, 42, 7, 56, 88, 21, 5};
  double sum = 0.0;
  for (auto i : idx) sum += col[i];
  const double mean = sum / static_cast<double>(idx.size());
  double ss = 0.0;
  for (auto i : idx) {
    const double d = col[i] - mean;
    ss += d * d;
  }
  const auto got = k().masked_mean_var(col.data(), idx.data(), idx.size());
  EXPECT_TRUE(BitEq(got.mean, mean));
  EXPECT_TRUE(BitEq(got.variance, ss / static_cast<double>(idx.size())));
}

TEST_P(SimdLevelTest, GatherScaleShiftMatchesScalarBitwise) {
  std::mt19937 rng(55);
  const auto col = adversarial_vector(301, 56);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(col.size() - 1));
  for (std::size_t n : kSizes) {
    std::vector<std::uint32_t> idx(n);
    for (auto& i : idx) i = pick(rng);
    for (std::size_t stride : {1u, 3u, 9u}) {
      std::vector<double> got(n * stride + 1, -7.0);
      std::vector<double> want(n * stride + 1, -7.0);
      k().gather_scale_shift(col.data(), idx.data(), n, 0.25, 1.75,
                             got.data(), stride);
      ref().gather_scale_shift(col.data(), idx.data(), n, 0.25, 1.75,
                               want.data(), stride);
      EXPECT_TRUE(BitEq(got, want)) << "n=" << n << " stride=" << stride;
      // Strided scatter must leave the gaps untouched.
      for (std::size_t i = 0; i + 1 < got.size(); ++i) {
        if (i % stride != 0 || i / stride >= n) {
          ASSERT_TRUE(BitEq(got[i], -7.0)) << "clobbered gap at " << i;
        }
      }
    }
  }
}

TEST_P(SimdLevelTest, GatherScaleShiftMatchesElementwiseFormula) {
  const auto col = random_vector(64, 57);
  std::vector<std::uint32_t> idx = {63, 0, 31, 31, 2, 17};
  std::vector<double> got(idx.size(), 0.0);
  k().gather_scale_shift(col.data(), idx.data(), idx.size(), 1.5, 0.5,
                         got.data(), 1);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_TRUE(BitEq(got[i], (col[idx[i]] - 1.5) / 0.5)) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, SimdLevelTest,
    ::testing::ValuesIn(std::vector<Level>(
        sift::simd::available_levels().begin(),
        sift::simd::available_levels().end())),
    [](const ::testing::TestParamInfo<Level>& info) {
      return sift::simd::to_string(info.param);
    });

TEST(SimdDispatch, ScalarIsAlwaysAvailableAndLast) {
  const auto levels = sift::simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.back(), Level::kScalar);
}

TEST(SimdDispatch, SetActiveLevelRoundTrips) {
  const Level before = sift::simd::active_level();
  for (const Level level : sift::simd::available_levels()) {
    ASSERT_TRUE(sift::simd::set_active_level(level));
    EXPECT_EQ(sift::simd::active_level(), level);
    EXPECT_EQ(sift::simd::active().level, level);
  }
  ASSERT_TRUE(sift::simd::set_active_level(before));
}

TEST(SimdDispatch, RegistryIsFixedPerTarget) {
  // The SSE2 table is what keeps the pipeline fast; a build that silently
  // registers only scalar would run ~40 % slower and still pass every
  // bit-identity test.
  const auto levels = sift::simd::available_levels();
#if defined(__x86_64__) || defined(_M_X64)
  const std::vector<Level> want = {Level::kSse2, Level::kScalar};
#else
  const std::vector<Level> want = {Level::kScalar};
#endif
  EXPECT_EQ(std::vector<Level>(levels.begin(), levels.end()), want);
}

TEST(SimdDispatch, UnavailableLevelIsRejected) {
  const Level missing = static_cast<Level>(7);  // no such enumerator
  const Level before = sift::simd::active_level();
  EXPECT_FALSE(sift::simd::set_active_level(missing));
  EXPECT_EQ(sift::simd::active_level(), before);
  // kernels() degrades to the scalar table rather than dispatching to a
  // level the build does not register.
  EXPECT_EQ(sift::simd::kernels(missing).level, Level::kScalar);
  EXPECT_STREQ(sift::simd::to_string(missing), "unknown");
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(sift::simd::to_string(Level::kScalar), "scalar");
  EXPECT_STREQ(sift::simd::to_string(Level::kSse2), "sse2");
}

TEST(SimdSpanWrappers, RouteThroughActiveTable) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> b = {2.0, 0.5, -1.0, 3.0, 0.25};
  EXPECT_TRUE(BitEq(sift::simd::dot(a, b),
                    sift::simd::active().dot(a.data(), b.data(), a.size())));
  const auto mm = sift::simd::min_max(a);
  EXPECT_EQ(mm.min, 1.0);
  EXPECT_EQ(mm.max, 5.0);
  const auto mv = sift::simd::mean_var(a);
  EXPECT_DOUBLE_EQ(mv.mean, 3.0);
  EXPECT_DOUBLE_EQ(mv.variance, 2.0);
}

}  // namespace
