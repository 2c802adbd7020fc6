// Unit tests for sift::signal — series, statistics, filters.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "signal/filters.hpp"
#include "signal/series.hpp"
#include "signal/stats.hpp"

namespace sift::signal {
namespace {

// --- Series ------------------------------------------------------------------

TEST(Series, RejectsNonPositiveSampleRate) {
  EXPECT_THROW(Series(0.0), std::invalid_argument);
  EXPECT_THROW(Series(-10.0), std::invalid_argument);
}

TEST(Series, DurationFollowsSizeAndRate) {
  Series s(360.0, std::vector<double>(1080, 0.0));
  EXPECT_DOUBLE_EQ(s.duration_s(), 3.0);
  EXPECT_EQ(s.size(), 1080u);
}

TEST(Series, TimeAndIndexAreInverse) {
  Series s(100.0, std::vector<double>(500, 1.0));
  EXPECT_DOUBLE_EQ(s.time_of(250), 2.5);
  EXPECT_EQ(s.index_at(2.5), 250u);
  EXPECT_EQ(s.index_at(-1.0), 0u);
  EXPECT_EQ(s.index_at(1e9), 499u) << "clamped to the last sample";
}

TEST(Series, AtIsBoundsChecked) {
  Series s(10.0, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.at(1), 2.0);
  EXPECT_THROW(s.at(2), std::out_of_range);
}

TEST(Series, SliceCopiesHalfOpenRange) {
  Series s(10.0, {0, 1, 2, 3, 4});
  const Series sub = s.slice(1, 4);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub[0], 1.0);
  EXPECT_DOUBLE_EQ(sub[2], 3.0);
  EXPECT_DOUBLE_EQ(sub.sample_rate_hz(), 10.0);
}

TEST(Series, SliceRejectsBadRanges) {
  Series s(10.0, {0, 1, 2});
  EXPECT_THROW(s.slice(2, 1), std::out_of_range);
  EXPECT_THROW(s.slice(0, 4), std::out_of_range);
}

TEST(Series, SliceTimeRoundsToSamples) {
  Series s(10.0, std::vector<double>(100, 0.0));
  const Series sub = s.slice_time(1.0, 2.0);
  EXPECT_EQ(sub.size(), 10u);
  EXPECT_THROW(s.slice_time(-1.0, 2.0), std::out_of_range);
}

TEST(Series, AppendRequiresMatchingRate) {
  Series a(10.0, {1, 2});
  Series b(10.0, {3});
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  Series c(20.0, {4});
  EXPECT_THROW(a.append(c), std::invalid_argument);
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, EmptyInputsAreZeroOrThrow) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(variance(empty), 0.0);
  EXPECT_THROW(min_value(empty), std::invalid_argument);
  EXPECT_THROW(max_value(empty), std::invalid_argument);
}

TEST(Stats, TrapezoidAucOfConstantIsExact) {
  const std::vector<double> f(11, 2.0);
  EXPECT_DOUBLE_EQ(trapezoid_auc(f, 0.0, 1.0), 2.0);
}

TEST(Stats, TrapezoidAucOfLinearRampIsExact) {
  // f(x) = x on [0,1]: integral 0.5; trapezoid rule is exact for linear f.
  std::vector<double> f;
  for (int i = 0; i <= 10; ++i) f.push_back(i / 10.0);
  EXPECT_NEAR(trapezoid_auc(f, 0.0, 1.0), 0.5, 1e-12);
}

TEST(Stats, TrapezoidAucNeedsTwoSamples) {
  EXPECT_DOUBLE_EQ(trapezoid_auc(std::vector<double>{1.0}, 0.0, 1.0), 0.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  const std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 9.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_EQ(rs.count(), xs.size());
}

// --- filters --------------------------------------------------------------------

TEST(Filters, LowPassAttenuatesHighFrequency) {
  // 2 Hz should pass a 10 Hz low-pass nearly untouched; 100 Hz should not.
  const double rate = 360.0;
  std::vector<double> lo;
  std::vector<double> hi;
  for (int i = 0; i < 1440; ++i) {
    const double t = i / rate;
    lo.push_back(std::sin(2 * std::numbers::pi * 2.0 * t));
    hi.push_back(std::sin(2 * std::numbers::pi * 100.0 * t));
  }
  auto lp = Biquad::low_pass(10.0, rate);
  const auto lo_out = lp.apply(lo);
  const auto hi_out = lp.apply(hi);
  // Compare RMS over the steady-state tail.
  auto rms_tail = [](const std::vector<double>& xs) {
    double s = 0.0;
    for (std::size_t i = xs.size() / 2; i < xs.size(); ++i) s += xs[i] * xs[i];
    return std::sqrt(s / (xs.size() / 2.0));
  };
  EXPECT_GT(rms_tail(lo_out), 0.9 / std::numbers::sqrt2);
  EXPECT_LT(rms_tail(hi_out), 0.05);
}

TEST(Filters, HighPassRemovesDc) {
  auto hp = Biquad::high_pass(1.0, 360.0);
  const auto out = hp.apply(std::vector<double>(720, 5.0));
  EXPECT_NEAR(out.back(), 0.0, 1e-3);
}

TEST(Filters, CutoffValidation) {
  EXPECT_THROW(Biquad::low_pass(0.0, 360.0), std::invalid_argument);
  EXPECT_THROW(Biquad::low_pass(180.0, 360.0), std::invalid_argument);
  EXPECT_THROW(Biquad::high_pass(-5.0, 360.0), std::invalid_argument);
  EXPECT_THROW(
      band_pass(std::vector<double>{1.0}, 15.0, 5.0, 360.0),
      std::invalid_argument);
}

TEST(Filters, FivePointDerivativeOfRampIsConstant) {
  std::vector<double> ramp;
  for (int i = 0; i < 50; ++i) ramp.push_back(2.0 * i);
  const auto d = five_point_derivative(ramp);
  // For x[n] = c*n, (2x[n] + x[n-1] - x[n-3] - 2x[n-4]) / 8 = 10c/8: the
  // classic Pan-Tompkins derivative has a fixed gain of 1.25 over the slope.
  for (std::size_t i = 4; i < d.size(); ++i) EXPECT_NEAR(d[i], 2.5, 1e-12);
}

TEST(Filters, SquareIsElementwise) {
  const auto out = square(std::vector<double>{-3.0, 2.0});
  EXPECT_DOUBLE_EQ(out[0], 9.0);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
}

TEST(Filters, MovingWindowIntegralOfConstant) {
  const auto out = moving_window_integral(std::vector<double>(20, 4.0), 5);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(Filters, MovingWindowIntegralRejectsZeroWindow) {
  EXPECT_THROW(moving_window_integral(std::vector<double>{1.0}, 0),
               std::invalid_argument);
  EXPECT_THROW(moving_average(std::vector<double>{1.0}, 0),
               std::invalid_argument);
}

TEST(Filters, MovingAveragePreservesConstant) {
  const auto out = moving_average(std::vector<double>(15, 7.0), 5);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 7.0);
}

}  // namespace
}  // namespace sift::signal
