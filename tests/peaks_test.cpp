// Unit tests for sift::peaks — run-time peak detection against the
// generator's ground-truth annotations.
#include <gtest/gtest.h>

#include <cmath>

#include "peaks/pairing.hpp"
#include "peaks/pan_tompkins.hpp"
#include "peaks/systolic.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"

namespace sift::peaks {
namespace {

// Fraction of ground-truth peaks matched by a detection within tol samples,
// and vice versa (symmetric match quality).
double match_rate(const std::vector<std::size_t>& truth,
                  const std::vector<std::size_t>& detected,
                  std::size_t tol) {
  if (truth.empty()) return detected.empty() ? 1.0 : 0.0;
  std::size_t matched = 0;
  for (std::size_t t : truth) {
    for (std::size_t d : detected) {
      const std::size_t diff = t > d ? t - d : d - t;
      if (diff <= tol) {
        ++matched;
        break;
      }
    }
  }
  return static_cast<double>(matched) / static_cast<double>(truth.size());
}

class PeakDetectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto cohort = physio::synthetic_cohort(4, 99);
    for (const auto& user : cohort) {
      records_.push_back(physio::generate_record(user, 60.0));
    }
  }
  static std::vector<physio::Record> records_;
};

std::vector<physio::Record> PeakDetectionTest::records_;

TEST_F(PeakDetectionTest, PanTompkinsFindsNearlyAllRPeaks) {
  for (const auto& rec : records_) {
    const auto detected = detect_r_peaks(rec.ecg);
    // Skip the first 2 s of ground truth: the adaptive threshold warms up.
    std::vector<std::size_t> truth;
    for (std::size_t p : rec.r_peaks) {
      if (p > 720) truth.push_back(p);
    }
    const double sensitivity = match_rate(truth, detected, /*tol=*/18);
    EXPECT_GT(sensitivity, 0.95) << "user " << rec.user_id;
    // Precision: detections should also be near true peaks.
    std::vector<std::size_t> late_detected;
    for (std::size_t p : detected) {
      if (p > 720) late_detected.push_back(p);
    }
    EXPECT_GT(match_rate(late_detected, truth, 18), 0.90)
        << "user " << rec.user_id;
  }
}

TEST_F(PeakDetectionTest, SystolicDetectorFindsNearlyAllPeaks) {
  for (const auto& rec : records_) {
    const auto detected = detect_systolic_peaks(rec.abp);
    std::vector<std::size_t> truth;
    for (std::size_t p : rec.systolic_peaks) {
      if (p > 360) truth.push_back(p);
    }
    EXPECT_GT(match_rate(truth, detected, 15), 0.95) << "user " << rec.user_id;
  }
}

TEST_F(PeakDetectionTest, SystolicDetectorDoesNotDoubleCountDicroticWave) {
  // The reflected-wave rebound after the dicrotic notch must not register
  // as a second beat: detections should roughly equal the true beat count.
  for (const auto& rec : records_) {
    const auto detected = detect_systolic_peaks(rec.abp);
    const double truth_n = static_cast<double>(rec.systolic_peaks.size());
    EXPECT_LT(static_cast<double>(detected.size()), truth_n * 1.1)
        << "user " << rec.user_id;
    // Precision: nearly all detections sit on an annotated peak.
    EXPECT_GT(match_rate(detected, rec.systolic_peaks, 15), 0.9)
        << "user " << rec.user_id;
  }
}

TEST(PanTompkins, EmptyAndShortInputs) {
  EXPECT_TRUE(detect_r_peaks(signal::Series(360.0)).empty());
  signal::Series tiny(360.0, std::vector<double>(5, 1.0));
  EXPECT_TRUE(detect_r_peaks(tiny).empty());
}

TEST(PanTompkins, FlatlineYieldsNoPeaks) {
  signal::Series flat(360.0, std::vector<double>(3600, 0.8));
  EXPECT_TRUE(detect_r_peaks(flat).empty());
}

TEST(PanTompkins, DetectionsRespectRefractoryPeriod) {
  const auto cohort = physio::synthetic_cohort(1, 5);
  const auto rec = physio::generate_record(cohort[0], 30.0);
  PanTompkinsConfig cfg;
  const auto detected = detect_r_peaks(rec.ecg, cfg);
  const auto min_gap = static_cast<std::size_t>(
      cfg.refractory_s / 2 * rec.ecg.sample_rate_hz());
  for (std::size_t i = 1; i < detected.size(); ++i) {
    EXPECT_GT(detected[i] - detected[i - 1], min_gap);
  }
}

TEST(Systolic, FlatAndShortInputs) {
  EXPECT_TRUE(detect_systolic_peaks(signal::Series(360.0)).empty());
  signal::Series flat(360.0, std::vector<double>(3600, 90.0));
  EXPECT_TRUE(detect_systolic_peaks(flat).empty());
}

TEST(Systolic, DetectionsAreAscending) {
  const auto cohort = physio::synthetic_cohort(1, 6);
  const auto rec = physio::generate_record(cohort[0], 20.0);
  const auto detected = detect_systolic_peaks(rec.abp);
  for (std::size_t i = 1; i < detected.size(); ++i) {
    EXPECT_LT(detected[i - 1], detected[i]);
  }
}

// --- pairing -----------------------------------------------------------------

TEST(Pairing, MatchesEachRWithFollowingSystolic) {
  const std::vector<std::size_t> r{100, 400, 700};
  const std::vector<std::size_t> s{180, 480, 780};
  const auto pairs = pair_peaks(r, s, 360.0, 0.6);
  ASSERT_EQ(pairs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pairs[i].r_index, r[i]);
    EXPECT_EQ(pairs[i].sys_index, s[i]);
  }
}

TEST(Pairing, DropsRPeaksWithNoSystolicInDelayWindow) {
  const std::vector<std::size_t> r{100, 400};
  const std::vector<std::size_t> s{180};  // nothing follows r=400
  const auto pairs = pair_peaks(r, s, 360.0, 0.6);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].r_index, 100u);
}

TEST(Pairing, RejectsSystolicBeyondMaxDelay) {
  const std::vector<std::size_t> r{0};
  const std::vector<std::size_t> s{300};  // 300/360 s = 0.83 s > 0.6 s
  EXPECT_TRUE(pair_peaks(r, s, 360.0, 0.6).empty());
  EXPECT_EQ(pair_peaks(r, s, 360.0, 1.0).size(), 1u);
}

TEST(Pairing, EachSystolicUsedAtMostOnce) {
  const std::vector<std::size_t> r{100, 120};  // two Rs race for one systolic
  const std::vector<std::size_t> s{200};
  const auto pairs = pair_peaks(r, s, 360.0, 0.6);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].r_index, 100u) << "first R wins";
}

TEST(Pairing, SystolicCoincidentWithRIsNotItsPair) {
  const std::vector<std::size_t> r{100};
  const std::vector<std::size_t> s{100, 150};
  const auto pairs = pair_peaks(r, s, 360.0, 0.6);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].sys_index, 150u) << "pairs strictly after the R peak";
}

TEST(Pairing, EmptyInputs) {
  const std::vector<std::size_t> none;
  const std::vector<std::size_t> two{1, 2};
  EXPECT_TRUE(pair_peaks(none, two, 360.0).empty());
  EXPECT_TRUE(pair_peaks(two, none, 360.0).empty());
}

}  // namespace
}  // namespace sift::peaks
