// Property-based tests: invariants that must hold across randomised inputs
// and parameter sweeps (TEST_P), rather than single examples.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "core/count_matrix.hpp"
#include "core/features.hpp"
#include "core/fixed_point.hpp"
#include "core/portrait.hpp"
#include "core/windows.hpp"
#include "grid_oracle.hpp"
#include "peaks/pairing.hpp"
#include "peaks/pan_tompkins.hpp"
#include "peaks/systolic.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"
#include "signal/stats.hpp"

namespace sift {
namespace {

// Deterministic random window with r/s peak annotations.
struct RandomWindow {
  std::vector<double> ecg;
  std::vector<double> abp;
  std::vector<std::size_t> r;
  std::vector<std::size_t> s;

  core::PortraitInput input() const {
    core::PortraitInput in;
    in.ecg = ecg;
    in.abp = abp;
    in.r_peaks = r;
    in.sys_peaks = s;
    in.sample_rate_hz = 100.0;
    return in;
  }
};

RandomWindow random_window(std::uint64_t seed, std::size_t n = 256) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  RandomWindow w;
  for (std::size_t i = 0; i < n; ++i) {
    w.ecg.push_back(std::sin(i * 0.21) + 0.3 * noise(rng));
    w.abp.push_back(85.0 + 12.0 * std::sin(i * 0.21 - 0.7) + noise(rng));
  }
  for (std::size_t i = 10; i + 16 < n; i += 64) {
    w.r.push_back(i);
    w.s.push_back(i + 12);
  }
  return w;
}

core::Portrait random_portrait(std::uint64_t seed,
                               std::size_t grid_n = core::kDefaultGridSize) {
  return core::Portrait(random_window(seed).input(), grid_n);
}

std::vector<std::size_t> every_index(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

std::vector<std::uint32_t> columns_of(const core::Portrait& p) {
  return {p.column_counts().begin(), p.column_counts().end()};
}

// --- portrait / count-matrix invariants over random inputs -------------------------

class RandomPortraitTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPortraitTest, PortraitPointsStayInUnitSquare) {
  // A peak at every index: the peak points are the whole trajectory.
  RandomWindow w = random_window(GetParam());
  w.r = every_index(w.ecg.size());
  const core::Portrait p(w.input());
  ASSERT_EQ(p.r_peak_points().size(), w.ecg.size());
  for (const core::Point& pt : p.r_peak_points()) {
    EXPECT_GE(pt.x, 0.0);
    EXPECT_LE(pt.x, 1.0);
    EXPECT_GE(pt.y, 0.0);
    EXPECT_LE(pt.y, 1.0);
  }
}

TEST_P(RandomPortraitTest, CountMatrixConservesPoints) {
  const RandomWindow w = random_window(GetParam());
  for (std::size_t n : {3u, 10u, 50u}) {
    const core::Portrait p(w.input(), n);
    const core::CountMatrix m(p, n);
    std::uint64_t sum = 0;
    for (std::uint32_t c : m.column_counts()) sum += c;
    EXPECT_EQ(sum, w.ecg.size());
    EXPECT_EQ(m.total_points(), w.ecg.size());
    const auto g = sift::testing::oracle_grid(w.input(), n);
    EXPECT_EQ(columns_of(p), g.column_counts()) << "n=" << n;
    EXPECT_EQ(m.sum_squared_counts(), g.sum_squared_counts()) << "n=" << n;
  }
}

TEST_P(RandomPortraitTest, SfiWithinTheoreticalBounds) {
  const auto p = random_portrait(GetParam());
  const core::CountMatrix m(p, 50);
  const double sfi = m.spatial_filling_index();
  EXPECT_GE(sfi, 1.0 / static_cast<double>(p.total_points()) - 1e-12);
  EXPECT_LE(sfi, 1.0 + 1e-12);
}

TEST_P(RandomPortraitTest, AllFeaturesAreFinite) {
  const auto p = random_portrait(GetParam());
  for (auto v : {core::DetectorVersion::kOriginal,
                 core::DetectorVersion::kSimplified,
                 core::DetectorVersion::kReduced}) {
    for (auto a : {core::Arithmetic::kDouble, core::Arithmetic::kFloat32,
                   core::Arithmetic::kFixedQ16}) {
      for (double f : core::extract_features(p, v, a)) {
        EXPECT_TRUE(std::isfinite(f))
            << core::to_string(v) << "/" << core::to_string(a);
      }
    }
  }
}

TEST_P(RandomPortraitTest, FeatureExtractionIsDeterministic) {
  const auto p1 = random_portrait(GetParam());
  const auto p2 = random_portrait(GetParam());
  EXPECT_EQ(core::extract_features(p1, core::DetectorVersion::kOriginal),
            core::extract_features(p2, core::DetectorVersion::kOriginal));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPortraitTest,
                         ::testing::Range<std::uint64_t>(1, 11));

class GridSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridSweepTest, MatrixFeaturesBehaveAtAnyResolution) {
  const auto p = random_portrait(77, GetParam());
  const core::CountMatrix m(p, GetParam());
  EXPECT_EQ(m.n(), GetParam());
  const double sfi = m.spatial_filling_index();
  EXPECT_GE(sfi, 1.0 / static_cast<double>(p.total_points()) - 1e-12);
  EXPECT_LE(sfi, 1.0 + 1e-12);
  const auto f = core::extract_features(
      p, m, core::DetectorVersion::kSimplified, core::Arithmetic::kDouble);
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
  // Coarser grids concentrate points -> SFI decreases with resolution.
  if (GetParam() >= 4) {
    const core::CountMatrix coarse(random_portrait(77, 2), 2);
    EXPECT_GE(coarse.spatial_filling_index(), sfi);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, GridSweepTest,
                         ::testing::Values(1, 2, 4, 5, 10, 25, 50, 100, 200,
                                           257));

// The one-pass binning against the full reference grid, at every SIMD
// level, over windows the vector body and scalar tail both see: NaN and
// infinite samples, a flatlined (degenerate) channel, odd lengths, and a
// warm portrait rebuilt across grid sizes.
TEST(PortraitGrid, SummaryMatchesOracleAtEveryLevel) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<RandomWindow> windows;
  windows.push_back(random_window(5, 1080));
  windows.push_back(random_window(6, 257));
  RandomWindow specials = random_window(7, 101);
  specials.abp[3] = kNan;
  specials.ecg[50] = kInf;
  specials.ecg[99] = -kInf;
  windows.push_back(specials);
  RandomWindow flat = random_window(8, 63);
  for (double& v : flat.ecg) v = 0.7;
  windows.push_back(flat);

  const simd::Level before = simd::active_level();
  core::Portrait warm;
  for (const simd::Level level : simd::available_levels()) {
    ASSERT_TRUE(simd::set_active_level(level));
    for (const RandomWindow& w : windows) {
      for (std::size_t n : {257u, 1u, 4u, 1021u, 50u}) {
        const auto g = sift::testing::oracle_grid(w.input(), n);
        warm.rebuild(w.input(), n);
        EXPECT_EQ(warm.grid_n(), n);
        EXPECT_EQ(columns_of(warm), g.column_counts())
            << simd::to_string(level) << " n=" << n;
        EXPECT_EQ(warm.sum_squared_counts(), g.sum_squared_counts())
            << simd::to_string(level) << " n=" << n;
        EXPECT_EQ(warm.total_points(), g.total());
      }
    }
  }
  ASSERT_TRUE(simd::set_active_level(before));
}

// --- zero-allocation refactor equivalences ------------------------------------------
//
// The span/scratch-based hot path introduced by the memory-discipline
// refactor must be *bit-identical* to the historical allocating APIs — not
// merely close: the detector's verdicts, the golden tests, and the Amulet
// energy model all assume the two paths compute the same values.

TEST_P(RandomPortraitTest, FeatureVectorPathMatchesVectorPath) {
  const auto p = random_portrait(GetParam());
  for (auto v : {core::DetectorVersion::kOriginal,
                 core::DetectorVersion::kSimplified,
                 core::DetectorVersion::kReduced}) {
    for (auto a : {core::Arithmetic::kDouble, core::Arithmetic::kFloat32,
                   core::Arithmetic::kFixedQ16}) {
      const core::CountMatrix m(p, core::kDefaultGridSize);
      const auto want = core::extract_features(p, m, v, a);
      core::FeatureVector got;
      core::extract_features_into(p, m, v, a, got);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])  // bitwise, not NEAR
            << core::to_string(v) << "/" << core::to_string(a) << " [" << i
            << "]";
      }
    }
  }
}

TEST_P(RandomPortraitTest, RebuiltPortraitMatchesConstructedPortrait) {
  const auto fresh = random_portrait(GetParam());
  // Rebuild a warm portrait (capacity already sized by a different seed)
  // from the same input; the grid summary and every derived point must be
  // bitwise identical.
  core::Portrait reused = random_portrait(GetParam() + 1);
  const RandomWindow w = random_window(GetParam());
  reused.rebuild(w.input());

  EXPECT_EQ(columns_of(reused), columns_of(fresh));
  EXPECT_EQ(reused.sum_squared_counts(), fresh.sum_squared_counts());
  EXPECT_EQ(reused.total_points(), fresh.total_points());
  ASSERT_EQ(reused.r_peak_points().size(), fresh.r_peak_points().size());
  for (std::size_t i = 0; i < fresh.r_peak_points().size(); ++i) {
    EXPECT_EQ(reused.r_peak_points()[i].x, fresh.r_peak_points()[i].x);
    EXPECT_EQ(reused.r_peak_points()[i].y, fresh.r_peak_points()[i].y);
  }
  ASSERT_EQ(reused.peak_pairs().size(), fresh.peak_pairs().size());
  for (std::size_t i = 0; i < fresh.peak_pairs().size(); ++i) {
    EXPECT_EQ(reused.peak_pairs()[i].r.x, fresh.peak_pairs()[i].r.x);
    EXPECT_EQ(reused.peak_pairs()[i].systolic.y,
              fresh.peak_pairs()[i].systolic.y);
  }
}

TEST(SpanOverloads, PeakDetectorsMatchSeriesPath) {
  const auto cohort = physio::synthetic_cohort(2, 13);
  const auto rec = physio::generate_record(cohort[0], 30.0);
  EXPECT_EQ(peaks::detect_r_peaks(rec.ecg),
            peaks::detect_r_peaks(rec.ecg.samples(),
                                  rec.ecg.sample_rate_hz()));
  EXPECT_EQ(peaks::detect_systolic_peaks(rec.abp),
            peaks::detect_systolic_peaks(rec.abp.samples(),
                                         rec.abp.sample_rate_hz()));
}

TEST(SpanOverloads, PairPeaksMatchesStreamingCore) {
  const std::vector<std::size_t> r{10, 100, 220, 340, 500};
  const std::vector<std::size_t> s{25, 130, 260, 600};
  const auto want = peaks::pair_peaks(r, s, 360.0);
  std::size_t streamed = 0;
  peaks::for_each_peak_pair(r, s, 360.0, peaks::kDefaultMaxPairDelayS,
                            [&](std::size_t rp, std::size_t sp) {
                              ASSERT_LT(streamed, want.size());
                              EXPECT_EQ(rp, want[streamed].r_index);
                              EXPECT_EQ(sp, want[streamed].sys_index);
                              ++streamed;
                            });
  EXPECT_EQ(streamed, want.size());
}

TEST(SpanOverloads, ScalerAndSvmSpanPathsMatchVectorPaths) {
  const auto mean = std::vector<double>{1.0, -2.0, 0.5};
  const auto scale = std::vector<double>{2.0, 0.25, 1.5};
  const auto scaler = ml::StandardScaler::from_params(mean, scale);
  const std::vector<double> x{0.3, 4.0, -1.25};
  const auto want = scaler.transform(x);
  std::vector<double> got(x.size());
  scaler.transform_into(x, got);
  EXPECT_EQ(got, want);
}

// --- normalisation properties -------------------------------------------------------

// The per-window min-max normaliser the portrait applies to each channel,
// read back as the ECG coordinate of every trajectory point (a peak at
// every index).
std::vector<double> portrait_normalize(const std::vector<double>& xs) {
  const auto every = every_index(xs.size());
  core::PortraitInput in;
  in.ecg = xs;
  in.abp = xs;
  in.r_peaks = every;
  const core::Portrait portrait(in);
  std::vector<double> out;
  for (const core::Point& pt : portrait.r_peak_points()) out.push_back(pt.y);
  return out;
}

TEST(Normalize, MinMaxMapsToUnitInterval) {
  const auto out = portrait_normalize({-2.0, 0.0, 2.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST(Normalize, ConstantSignalMapsToMidpoint) {
  const auto out = portrait_normalize({3.0, 3.0, 3.0});
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(Normalize, MinMaxIsInvariantToAffineTransform) {
  // Core SIFT property: portraits are gain/offset independent.
  const std::vector<double> xs{0.1, 0.9, 0.4, 0.7};
  std::vector<double> scaled;
  for (double x : xs) scaled.push_back(250.0 * x - 42.0);
  const auto a = portrait_normalize(xs);
  const auto b = portrait_normalize(scaled);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

class NormalizeSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NormalizeSweepTest, MinMaxIsIdempotent) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> u(-100.0, 100.0);
  std::vector<double> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(u(rng));
  const auto once = portrait_normalize(xs);
  const auto twice = portrait_normalize(once);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(once[i], twice[i], 1e-12);
  }
}

TEST_P(NormalizeSweepTest, MinMaxPreservesOrdering) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> u(-5.0, 5.0);
  std::vector<double> xs;
  for (int i = 0; i < 32; ++i) xs.push_back(u(rng));
  const auto out = portrait_normalize(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (xs[i] < xs[j]) {
        EXPECT_LE(out[i], out[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizeSweepTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Q16.16 algebraic properties ----------------------------------------------------

class FixedPointSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FixedPointSweepTest, ArithmeticApproximatesDoubles) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> u(-100.0, 100.0);
  for (int i = 0; i < 200; ++i) {
    const double a = u(rng);
    const double b = u(rng);
    const auto qa = core::Q16_16::from_double(a);
    const auto qb = core::Q16_16::from_double(b);
    EXPECT_NEAR((qa + qb).to_double(), a + b, 1e-3);
    EXPECT_NEAR((qa - qb).to_double(), a - b, 1e-3);
    EXPECT_NEAR((qa * qb).to_double(), a * b, std::abs(a) * 2e-3 + 2e-3);
    if (std::abs(b) > 0.1) {
      EXPECT_NEAR((qa / qb).to_double(), a / b,
                  std::abs(a / b) * 2e-3 + 2e-3);
    }
  }
}

TEST_P(FixedPointSweepTest, SqrtSquaresBack) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> u(0.01, 1000.0);
  for (int i = 0; i < 100; ++i) {
    const double v = u(rng);
    const auto root = core::Q16_16::from_double(v).sqrt();
    EXPECT_NEAR((root * root).to_double(), v, v * 0.01 + 0.01);
  }
}

TEST_P(FixedPointSweepTest, Atan2QuadrantIsAlwaysCorrect) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> u(-10.0, 10.0);
  for (int i = 0; i < 200; ++i) {
    const double y = u(rng);
    const double x = u(rng);
    if (std::abs(y) < 0.05 || std::abs(x) < 0.05) continue;
    const double got = core::Q16_16::atan2(core::Q16_16::from_double(y),
                                           core::Q16_16::from_double(x))
                           .to_double();
    const double want = std::atan2(y, x);
    EXPECT_NEAR(got, want, 0.01);
    EXPECT_EQ(got >= 0.0, want >= 0.0) << "quadrant sign y=" << y
                                       << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedPointSweepTest,
                         ::testing::Range<std::uint64_t>(1, 6));

// --- metric identities over random confusion matrices -------------------------------

class MetricsSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsSweepTest, RatesAndAccuracyAreConsistent) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> coin(0, 1);
  ml::ConfusionMatrix cm;
  for (int i = 0; i < 500; ++i) {
    cm.add(coin(rng) ? +1 : -1, coin(rng) ? +1 : -1);
  }
  const double n = static_cast<double>(cm.total());
  const double pos = static_cast<double>(cm.tp() + cm.fn());
  const double neg = static_cast<double>(cm.fp() + cm.tn());
  // accuracy == 1 - weighted error rates.
  const double err =
      (cm.false_negative_rate() * pos + cm.false_positive_rate() * neg) / n;
  EXPECT_NEAR(cm.accuracy(), 1.0 - err, 1e-12);
  // All rates in [0,1].
  for (double r : {cm.false_positive_rate(), cm.false_negative_rate(),
                   cm.accuracy(), cm.precision(), cm.recall(), cm.f1()}) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsSweepTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- SVM margin property --------------------------------------------------------------

class SvmSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SvmSweepTest, SeparableDataIsAlwaysSeparated) {
  std::mt19937_64 rng(GetParam());
  std::normal_distribution<double> noise(0.0, 0.3);
  ml::Dataset data;
  for (int i = 0; i < 60; ++i) {
    for (int y : {+1, -1}) {
      ml::LabeledPoint p;
      p.y = y;
      for (int j = 0; j < 3; ++j) p.x.push_back(2.0 * y + noise(rng));
      data.push_back(std::move(p));
    }
  }
  ml::TrainConfig cfg;
  cfg.seed = GetParam();
  const auto model = ml::DcdTrainer{}.train(data, cfg);
  for (const auto& p : data) {
    EXPECT_EQ(model.predict(p.x), p.y) << "margin >= 3 sigma: separable";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvmSweepTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- window-length sweep over the whole pipeline --------------------------------------

class WindowSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(WindowSweepTest, AnyWindowLengthYieldsFiniteBalancedFeatures) {
  const auto cohort = physio::synthetic_cohort(2, 9);
  const auto rec = physio::generate_record(cohort[0], 60.0);
  const auto window = static_cast<std::size_t>(GetParam() * 360.0);
  const auto feats = core::extract_window_features(
      rec, window, window, core::DetectorVersion::kOriginal,
      core::Arithmetic::kDouble);
  EXPECT_EQ(feats.size(), rec.ecg.size() / window);
  for (const auto& f : feats) {
    for (double v : f) EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweepTest,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0, 10.0));

}  // namespace
}  // namespace sift
