// Unit tests for sift::core portraits, count matrices, fixed-point
// arithmetic, and the three feature extractors (Table I semantics).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/count_matrix.hpp"
#include "core/features.hpp"
#include "core/fixed_point.hpp"
#include "core/portrait.hpp"
#include "grid_oracle.hpp"

namespace sift::core {
namespace {

// A hand-checkable portrait: a tiny "window" with known peak locations.
//   ECG:   0 at rest, spike to 1 at index 2 and 6 (R peaks)
//   ABP:  ramps so systolic peaks land at indices 3 and 7
PortraitInput tiny_input(const std::vector<double>& ecg,
                         const std::vector<double>& abp,
                         const std::vector<std::size_t>& r,
                         const std::vector<std::size_t>& s) {
  PortraitInput in;
  in.ecg = ecg;
  in.abp = abp;
  in.r_peaks = r;
  in.sys_peaks = s;
  in.sample_rate_hz = 10.0;  // 0.1 s per sample: pairs within 0.6 s
  return in;
}

/// Every sample index of a window: as R peaks, the portrait reports the
/// normalised coordinates of the whole trajectory.
std::vector<std::size_t> every_index(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

/// The portrait's grid summary must equal the full reference grid's.
void expect_matches_oracle(const Portrait& p, const PortraitInput& in) {
  const auto g = sift::testing::oracle_grid(in, p.grid_n());
  const auto cols = p.column_counts();
  EXPECT_EQ(std::vector<std::uint32_t>(cols.begin(), cols.end()),
            g.column_counts());
  EXPECT_EQ(p.sum_squared_counts(), g.sum_squared_counts());
  EXPECT_EQ(p.total_points(), g.total());
}

// --- Portrait ----------------------------------------------------------------

TEST(Portrait, NormalisesBothAxesToUnitSquare) {
  const std::vector<double> ecg{-1.0, 0.0, 3.0, 0.0};
  const std::vector<double> abp{60.0, 80.0, 100.0, 60.0};
  const Portrait p(tiny_input(ecg, abp, every_index(4), {}));
  const auto& pts = p.r_peak_points();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(p.total_points(), 4u);
  for (const Point& pt : pts) {
    EXPECT_GE(pt.x, 0.0);
    EXPECT_LE(pt.x, 1.0);
    EXPECT_GE(pt.y, 0.0);
    EXPECT_LE(pt.y, 1.0);
  }
  EXPECT_DOUBLE_EQ(pts[2].y, 1.0);  // ECG max
  EXPECT_DOUBLE_EQ(pts[2].x, 1.0);  // ABP max
  EXPECT_DOUBLE_EQ(pts[0].y, 0.0);  // ECG min
}

TEST(Portrait, PeakPointsAreTrajectoryCoordinates) {
  const std::vector<double> ecg{0.0, 0.5, 1.0, 0.2, 0.0, 0.3, 1.0, 0.1};
  const std::vector<double> abp{70.0, 75, 80, 95, 80, 75, 82, 96};
  const Portrait p(tiny_input(ecg, abp, {2, 6}, {3, 7}));
  ASSERT_EQ(p.r_peak_points().size(), 2u);
  ASSERT_EQ(p.systolic_peak_points().size(), 2u);
  EXPECT_DOUBLE_EQ(p.r_peak_points()[0].y, 1.0);
  EXPECT_DOUBLE_EQ(p.systolic_peak_points()[1].x, 1.0);
}

TEST(Portrait, PairsRWithFollowingSystolic) {
  const std::vector<double> ecg{0, 0, 1, 0, 0, 0, 1, 0};
  const std::vector<double> abp{70, 75, 80, 95, 80, 75, 82, 96};
  const Portrait p(tiny_input(ecg, abp, {2, 6}, {3, 7}));
  ASSERT_EQ(p.peak_pairs().size(), 2u);
  EXPECT_DOUBLE_EQ(p.peak_pairs()[0].r.y, 1.0);
  EXPECT_DOUBLE_EQ(p.peak_pairs()[0].systolic.x,
                   (95.0 - 70.0) / (96.0 - 70.0));
}

TEST(Portrait, ValidatesInputs) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  const std::vector<double> empty;
  EXPECT_THROW(Portrait(tiny_input(a, b, {}, {})), std::invalid_argument);
  EXPECT_THROW(Portrait(tiny_input(empty, empty, {}, {})),
               std::invalid_argument);
  EXPECT_THROW(Portrait(tiny_input(a, a, {5}, {})), std::invalid_argument);
  EXPECT_THROW(Portrait(tiny_input(a, a, {}, {5})), std::invalid_argument);
  PortraitInput bad = tiny_input(a, a, {}, {});
  bad.sample_rate_hz = 0.0;
  EXPECT_THROW(Portrait{bad}, std::invalid_argument);
}

TEST(Portrait, FlatlineEcgStillProducesFinitePortrait) {
  const std::vector<double> ecg(20, 0.7);  // flatline attack output
  std::vector<double> abp;
  for (int i = 0; i < 20; ++i) abp.push_back(80.0 + (i % 7));
  const Portrait p(tiny_input(ecg, abp, every_index(20), {}));
  ASSERT_EQ(p.r_peak_points().size(), 20u);
  for (const Point& pt : p.r_peak_points()) {
    EXPECT_TRUE(std::isfinite(pt.x));
    EXPECT_DOUBLE_EQ(pt.y, 0.5) << "constant channel maps to midpoint";
  }
}

// --- CountMatrix ----------------------------------------------------------------

TEST(CountMatrix, TotalEqualsPortraitPoints) {
  const std::vector<double> ecg{0, 0.2, 0.9, 1.0, 0.3};
  const std::vector<double> abp{70, 72, 90, 95, 74};
  const PortraitInput in = tiny_input(ecg, abp, {}, {});
  const Portrait p(in, 10);
  const CountMatrix m(p, 10);
  EXPECT_EQ(m.total_points(), 5u);
  std::size_t sum = 0;
  for (std::uint32_t c : m.column_counts()) sum += c;
  EXPECT_EQ(sum, 5u);
  expect_matches_oracle(p, in);
}

TEST(CountMatrix, BoundaryCoordinateLandsInLastCell) {
  const std::vector<double> ecg{0.0, 1.0};
  const std::vector<double> abp{0.0, 1.0};
  const PortraitInput in = tiny_input(ecg, abp, {}, {});
  const Portrait p(in, 4);
  const CountMatrix m(p, 4);
  const auto g = sift::testing::oracle_grid(in, 4);
  EXPECT_EQ(g.at(0, 0), 1u);
  EXPECT_EQ(g.at(3, 3), 1u) << "x == 1.0 clamps into the last bin";
  const std::vector<std::uint32_t> want{1, 0, 0, 1};
  EXPECT_EQ(std::vector<std::uint32_t>(m.column_counts().begin(),
                                       m.column_counts().end()),
            want);
  EXPECT_EQ(m.sum_squared_counts(), 2u) << "two distinct cells, one each";
  expect_matches_oracle(p, in);
}

TEST(CountMatrix, RejectsZeroGrid) {
  const std::vector<double> v{0.0, 1.0};
  const Portrait p(tiny_input(v, v, {}, {}));
  EXPECT_THROW(CountMatrix(p, 0), std::invalid_argument);
  EXPECT_THROW(Portrait(tiny_input(v, v, {}, {}), 0), std::invalid_argument);
  EXPECT_THROW(CountMatrix(p, 10), std::invalid_argument)
      << "the matrix summarises the grid the portrait was binned at";
}

TEST(CountMatrix, ColumnAveragesSumToTotalOverN) {
  const std::vector<double> ecg{0, 0.1, 0.5, 0.9, 1.0, 0.4};
  const std::vector<double> abp{70, 71, 85, 92, 95, 73};
  const Portrait p(tiny_input(ecg, abp, {}, {}), 5);
  const CountMatrix m(p, 5);
  const auto col = m.column_averages();
  double sum = 0.0;
  for (double c : col) sum += c;
  EXPECT_NEAR(sum * 5.0, 6.0, 1e-12) << "sum(col averages) * n == total";
}

TEST(CountMatrix, SfiBoundsAndExtremes) {
  // All points in one cell -> SFI = 1 (maximum concentration).
  const std::vector<double> same(12, 0.5);
  const Portrait concentrated(tiny_input(same, same, {}, {}));
  EXPECT_DOUBLE_EQ(CountMatrix(concentrated, 50).spatial_filling_index(), 1.0);

  // Spread points -> SFI near the 1/total lower bound.
  std::vector<double> ecg;
  std::vector<double> abp;
  for (int i = 0; i < 50; ++i) {
    ecg.push_back(i / 49.0);
    abp.push_back(i / 49.0);
  }
  const Portrait spread(tiny_input(ecg, abp, {}, {}));
  const double sfi = CountMatrix(spread, 50).spatial_filling_index();
  EXPECT_GE(sfi, 1.0 / 50.0 - 1e-12);
  EXPECT_LE(sfi, 2.0 / 50.0);
}

// --- Q16.16 fixed point ----------------------------------------------------------

TEST(FixedPoint, RoundTripsWithinResolution) {
  for (double v : {0.0, 1.0, -1.0, 0.333, 100.25, -2047.5}) {
    EXPECT_NEAR(Q16_16::from_double(v).to_double(), v, 1.0 / 65536.0);
  }
}

TEST(FixedPoint, BasicArithmetic) {
  const auto a = Q16_16::from_double(3.5);
  const auto b = Q16_16::from_double(-1.25);
  EXPECT_NEAR((a + b).to_double(), 2.25, 1e-4);
  EXPECT_NEAR((a - b).to_double(), 4.75, 1e-4);
  EXPECT_NEAR((a * b).to_double(), -4.375, 1e-3);
  EXPECT_NEAR((a / b).to_double(), -2.8, 1e-3);
}

TEST(FixedPoint, SaturatesInsteadOfWrapping) {
  const auto big = Q16_16::from_double(30000.0);
  const auto sum = big + big;
  EXPECT_GT(sum.to_double(), 32000.0);
  EXPECT_LT(sum.to_double(), 33000.0) << "saturated at the type maximum";
  const auto prod = big * big;
  EXPECT_GT(prod.to_double(), 32000.0);
}

TEST(FixedPoint, DivisionByZeroSaturates) {
  const auto one = Q16_16::from_double(1.0);
  const auto zero = Q16_16::from_double(0.0);
  EXPECT_GT((one / zero).to_double(), 32000.0);
  EXPECT_LT((-one / zero).to_double(), -32000.0);
}

TEST(FixedPoint, SqrtMatchesStdSqrt) {
  for (double v : {0.25, 1.0, 2.0, 9.0, 100.0, 1000.0}) {
    EXPECT_NEAR(Q16_16::from_double(v).sqrt().to_double(), std::sqrt(v), 0.01)
        << "sqrt(" << v << ")";
  }
  EXPECT_DOUBLE_EQ(Q16_16::from_double(-4.0).sqrt().to_double(), 0.0);
}

TEST(FixedPoint, Atan2MatchesStdAtan2) {
  const double pts[][2] = {{1, 1},   {1, 0},  {0, 1},  {-1, 1},
                           {-1, -1}, {1, -1}, {0.2, 0.9}, {-0.7, 0.1}};
  for (const auto& p : pts) {
    const double y = p[0];
    const double x = p[1];
    EXPECT_NEAR(
        Q16_16::atan2(Q16_16::from_double(y), Q16_16::from_double(x))
            .to_double(),
        std::atan2(y, x), 0.01)
        << "atan2(" << y << ", " << x << ")";
  }
  EXPECT_DOUBLE_EQ(
      Q16_16::atan2(Q16_16::from_double(0), Q16_16::from_double(0))
          .to_double(),
      0.0);
}

// --- feature extractors ------------------------------------------------------------

TEST(Features, CountsAndNamesPerVersion) {
  EXPECT_EQ(feature_count(DetectorVersion::kOriginal), 8u);
  EXPECT_EQ(feature_count(DetectorVersion::kSimplified), 8u);
  EXPECT_EQ(feature_count(DetectorVersion::kReduced), 5u);
  for (auto v : {DetectorVersion::kOriginal, DetectorVersion::kSimplified,
                 DetectorVersion::kReduced}) {
    EXPECT_EQ(feature_names(v).size(), feature_count(v));
  }
  EXPECT_EQ(feature_names(DetectorVersion::kOriginal)[1],
            "stddev_column_averages");
  EXPECT_EQ(feature_names(DetectorVersion::kSimplified)[1],
            "variance_column_averages");
}

// Fixture with a realistic single-beat portrait.
class FeatureValueTest : public ::testing::Test {
 protected:
  FeatureValueTest() {
    // One R peak at (0.2, 1.0); one systolic at (1.0, 0.3); paired.
    std::vector<double> ecg{0.0, 0.1, 1.0, 0.2, 0.1, 0.05, 0.0, 0.0};
    std::vector<double> abp{70.0, 71, 76, 85, 100, 90, 80, 70};
    in_ecg_ = ecg;
    in_abp_ = abp;
  }
  Portrait make(const std::vector<std::size_t>& r,
                const std::vector<std::size_t>& s) const {
    return Portrait(tiny_input(in_ecg_, in_abp_, r, s));
  }
  std::vector<double> in_ecg_;
  std::vector<double> in_abp_;
};

TEST_F(FeatureValueTest, SimplifiedGeometricFeaturesMatchHandComputation) {
  const Portrait p = make({2}, {4});
  const auto f = extract_features(p, DetectorVersion::kReduced);
  ASSERT_EQ(f.size(), 5u);
  const Point r = p.r_peak_points()[0];
  const Point s = p.systolic_peak_points()[0];
  EXPECT_NEAR(f[0], r.y / r.x, 1e-12);                      // R slope
  EXPECT_NEAR(f[1], s.y / s.x, 1e-12);                      // systolic slope
  EXPECT_NEAR(f[2], r.x * r.x + r.y * r.y, 1e-12);          // R dist^2
  EXPECT_NEAR(f[3], s.x * s.x + s.y * s.y, 1e-12);          // sys dist^2
  const double dx = r.x - s.x;
  const double dy = r.y - s.y;
  EXPECT_NEAR(f[4], dx * dx + dy * dy, 1e-12);              // pair dist^2
}

TEST_F(FeatureValueTest, OriginalGeometricFeaturesUseAnglesAndDistances) {
  const Portrait p = make({2}, {4});
  const auto f = extract_features(p, DetectorVersion::kOriginal);
  ASSERT_EQ(f.size(), 8u);
  const Point r = p.r_peak_points()[0];
  const Point s = p.systolic_peak_points()[0];
  EXPECT_NEAR(f[3], std::atan2(r.y, r.x), 1e-12);
  EXPECT_NEAR(f[4], std::atan2(s.y, s.x), 1e-12);
  EXPECT_NEAR(f[5], std::hypot(r.x, r.y), 1e-12);
  EXPECT_NEAR(f[6], std::hypot(s.x, s.y), 1e-12);
  EXPECT_NEAR(f[7], std::hypot(r.x - s.x, r.y - s.y), 1e-12);
}

TEST_F(FeatureValueTest, SimplifiedMatrixFeaturesRelateToOriginal) {
  const Portrait p = make({2}, {4});
  const CountMatrix m(p, 50);
  const auto orig =
      extract_features(p, m, DetectorVersion::kOriginal, Arithmetic::kDouble);
  const auto simp = extract_features(p, m, DetectorVersion::kSimplified,
                                     Arithmetic::kDouble);
  EXPECT_DOUBLE_EQ(orig[0], simp[0]) << "SFI identical";
  EXPECT_NEAR(simp[1], orig[1] * orig[1], 1e-12)
      << "variance == stddev^2";
  EXPECT_NEAR(simp[2], orig[2], 1e-12)
      << "the paper's closed-form AUC equals the trapezoid rule";
}

TEST_F(FeatureValueTest, ReducedEqualsSimplifiedGeometricBlock) {
  const Portrait p = make({2}, {4});
  const CountMatrix m(p, 50);
  const auto simp = extract_features(p, m, DetectorVersion::kSimplified,
                                     Arithmetic::kDouble);
  const auto red =
      extract_features(p, m, DetectorVersion::kReduced, Arithmetic::kDouble);
  ASSERT_EQ(red.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(red[i], simp[i + 3]);
  }
}

TEST_F(FeatureValueTest, EmptyPeakSetsYieldZeroGeometricFeatures) {
  const Portrait p = make({}, {});
  const auto f = extract_features(p, DetectorVersion::kReduced);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(FeatureValueTest, LeftEdgePeakSaturatesInsteadOfInf) {
  // Put the R peak at the ABP minimum -> portrait x == 0 -> slope guard.
  std::vector<double> ecg{0.0, 1.0, 0.2, 0.1};
  std::vector<double> abp{70.0, 70.0, 90.0, 100.0};  // min at the R instant
  const Portrait p(tiny_input(ecg, abp, {1}, {3}));
  const auto f = extract_features(p, DetectorVersion::kReduced);
  EXPECT_TRUE(std::isfinite(f[0]));
  EXPECT_GT(f[0], 1000.0) << "slope saturates high, stays finite";
}

TEST_F(FeatureValueTest, SfiIsInvariantToWindowGain) {
  // Multiplying raw signals by a gain must not change any feature
  // (portraits are normalised per window) — SIFT's sensor-gain robustness.
  const Portrait p1 = make({2}, {4});
  std::vector<double> ecg2;
  std::vector<double> abp2;
  for (double v : in_ecg_) ecg2.push_back(v * 7.5 + 2.0);
  for (double v : in_abp_) abp2.push_back(v * 0.3 - 10.0);
  const Portrait p2(tiny_input(ecg2, abp2, {2}, {4}));
  for (auto version : {DetectorVersion::kOriginal,
                       DetectorVersion::kSimplified,
                       DetectorVersion::kReduced}) {
    const auto f1 = extract_features(p1, version);
    const auto f2 = extract_features(p2, version);
    ASSERT_EQ(f1.size(), f2.size());
    for (std::size_t i = 0; i < f1.size(); ++i) {
      EXPECT_NEAR(f1[i], f2[i], 1e-9) << to_string(version) << " f" << i;
    }
  }
}

// Arithmetic backends: float32 and Q16.16 must approximate double.
class ArithmeticBackendTest
    : public ::testing::TestWithParam<DetectorVersion> {};

TEST_P(ArithmeticBackendTest, Float32TracksDouble) {
  std::vector<double> ecg;
  std::vector<double> abp;
  for (int i = 0; i < 64; ++i) {
    ecg.push_back(std::sin(i * 0.3) + (i % 16 == 3 ? 2.0 : 0.0));
    abp.push_back(80.0 + 15.0 * std::sin(i * 0.3 - 0.8));
  }
  const Portrait p(tiny_input(ecg, abp, {3, 19, 35, 51}, {6, 22, 38, 54}));
  const auto fd = extract_features(p, GetParam(), Arithmetic::kDouble);
  const auto ff = extract_features(p, GetParam(), Arithmetic::kFloat32);
  ASSERT_EQ(fd.size(), ff.size());
  for (std::size_t i = 0; i < fd.size(); ++i) {
    EXPECT_NEAR(ff[i], fd[i], std::abs(fd[i]) * 1e-4 + 1e-5) << "f" << i;
  }
}

TEST_P(ArithmeticBackendTest, FixedPointTracksDoubleCoarsely) {
  std::vector<double> ecg;
  std::vector<double> abp;
  for (int i = 0; i < 64; ++i) {
    ecg.push_back(std::sin(i * 0.3) + (i % 16 == 3 ? 2.0 : 0.0));
    abp.push_back(80.0 + 15.0 * std::sin(i * 0.3 - 0.8));
  }
  const Portrait p(tiny_input(ecg, abp, {3, 19, 35, 51}, {6, 22, 38, 54}));
  const auto fd = extract_features(p, GetParam(), Arithmetic::kDouble);
  const auto fq = extract_features(p, GetParam(), Arithmetic::kFixedQ16);
  ASSERT_EQ(fq.size(), fd.size());
  for (std::size_t i = 0; i < fd.size(); ++i) {
    EXPECT_NEAR(fq[i], fd[i], std::abs(fd[i]) * 0.02 + 0.01) << "f" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, ArithmeticBackendTest,
                         ::testing::Values(DetectorVersion::kOriginal,
                                           DetectorVersion::kSimplified,
                                           DetectorVersion::kReduced),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(FeaturesCounted, CountsOperationsAndMatchesDouble) {
  std::vector<double> ecg;
  std::vector<double> abp;
  for (int i = 0; i < 32; ++i) {
    ecg.push_back(std::sin(i * 0.5));
    abp.push_back(80 + 10 * std::cos(i * 0.5));
  }
  PortraitInput in;
  in.ecg = ecg;
  in.abp = abp;
  const std::vector<std::size_t> r{4, 17};
  const std::vector<std::size_t> s{7, 20};
  in.r_peaks = r;
  in.sys_peaks = s;
  in.sample_rate_hz = 50.0;
  const Portrait p(in);
  const CountMatrix m(p, 50);

  OpCounts counts;
  const auto fc =
      extract_features_counted(p, m, DetectorVersion::kOriginal, counts);
  const auto fd =
      extract_features(p, m, DetectorVersion::kOriginal, Arithmetic::kDouble);
  EXPECT_EQ(fc, fd) << "instrumentation must not change numerics";
  EXPECT_GT(counts.total(), 100u);
  EXPECT_GE(counts.sqrt_calls, 1u) << "stddev needs a sqrt";
  EXPECT_GE(counts.atan2_calls, 4u) << "two angle features, two peaks each";

  OpCounts reduced_counts;
  extract_features_counted(p, m, DetectorVersion::kReduced, reduced_counts);
  EXPECT_LT(reduced_counts.total(), counts.total())
      << "Reduced does strictly less arithmetic";
  EXPECT_EQ(reduced_counts.sqrt_calls, 0u);
  EXPECT_EQ(reduced_counts.atan2_calls, 0u);
}

}  // namespace
}  // namespace sift::core
