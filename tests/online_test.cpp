// Tests for physiological drift and online model adaptation.
#include <gtest/gtest.h>

#include <span>

#include "attack/attack.hpp"
#include "attack/scenario.hpp"
#include "core/online.hpp"
#include "core/windows.hpp"
#include "ml/metrics.hpp"
#include "physio/drift.hpp"

namespace sift::core {
namespace {

class OnlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cohort_ = new std::vector(physio::synthetic_cohort(4, 2017));
    training_ =
        new std::vector(physio::generate_cohort_records(*cohort_, 300.0));
    SiftConfig config;
    model_ = new UserModel(train_user_model(
        (*training_)[0], std::span(*training_).subspan(1), config));
    reservoir_ = new std::vector(OnlineAdapter::make_positive_reservoir(
        (*training_)[0], std::span(*training_).subspan(1), config, 50));
  }
  static void TearDownTestSuite() {
    delete cohort_;
    delete training_;
    delete model_;
    delete reservoir_;
    cohort_ = nullptr;
    training_ = nullptr;
    model_ = nullptr;
    reservoir_ = nullptr;
  }

  static double false_alarm_rate(const Detector& detector,
                                 const physio::Record& genuine) {
    const auto verdicts = detector.classify_record(genuine);
    std::size_t alerts = 0;
    for (const auto& v : verdicts) alerts += v.altered ? 1 : 0;
    return static_cast<double>(alerts) / static_cast<double>(verdicts.size());
  }

  static std::vector<physio::UserProfile>* cohort_;
  static std::vector<physio::Record>* training_;
  static UserModel* model_;
  static std::vector<std::vector<double>>* reservoir_;
};

std::vector<physio::UserProfile>* OnlineTest::cohort_ = nullptr;
std::vector<physio::Record>* OnlineTest::training_ = nullptr;
UserModel* OnlineTest::model_ = nullptr;
std::vector<std::vector<double>>* OnlineTest::reservoir_ = nullptr;

// --- drift model -----------------------------------------------------------------

TEST(Drift, SeverityZeroIsIdentity) {
  const auto cohort = physio::synthetic_cohort(1, 3);
  const auto same = physio::drift_profile(cohort[0], 0.0);
  EXPECT_DOUBLE_EQ(same.ecg.t.amplitude_mv, cohort[0].ecg.t.amplitude_mv);
  EXPECT_DOUBLE_EQ(same.rr.mean_hr_bpm, cohort[0].rr.mean_hr_bpm);
}

TEST(Drift, SeverityScalesMonotonically) {
  const auto cohort = physio::synthetic_cohort(1, 3);
  const auto mild = physio::drift_profile(cohort[0], 0.3);
  const auto severe = physio::drift_profile(cohort[0], 0.9);
  EXPECT_GT(mild.ecg.t.amplitude_mv, severe.ecg.t.amplitude_mv);
  EXPECT_LT(mild.abp.pulse_pressure_mmhg, severe.abp.pulse_pressure_mmhg);
  EXPECT_THROW(physio::drift_profile(cohort[0], -0.1), std::invalid_argument);
  EXPECT_THROW(physio::drift_profile(cohort[0], 1.5), std::invalid_argument);
}

TEST_F(OnlineTest, DriftDegradesAStaticModel) {
  const Detector detector(*model_);
  const auto clean =
      physio::generate_record((*cohort_)[0], 120.0, 360.0, /*salt=*/9);
  EXPECT_LT(false_alarm_rate(detector, clean), 0.1);

  const auto drifted_profile = physio::drift_profile((*cohort_)[0], 0.75);
  const auto drifted =
      physio::generate_record(drifted_profile, 120.0, 360.0, 9);
  EXPECT_GT(false_alarm_rate(detector, drifted), 0.5)
      << "severe drift makes the genuine wearer look like an attacker";
}

// --- adapter ---------------------------------------------------------------------

TEST_F(OnlineTest, AdaptationRestoresFalseAlarmRate) {
  OnlineAdapter adapter(*model_, *reservoir_);
  const auto drifted_profile = physio::drift_profile((*cohort_)[0], 0.75);

  // A few confirmed-genuine sessions at the drifted physiology.
  for (std::uint64_t session = 0; session < 4; ++session) {
    const auto confirmed = physio::generate_record(drifted_profile, 60.0,
                                                   360.0, 100 + session);
    for (std::size_t start = 0; start + 1080 <= confirmed.ecg.size();
         start += 1080) {
      adapter.assimilate_genuine(
          make_window_portrait(confirmed, start, 1080));
    }
  }

  const auto drifted_test =
      physio::generate_record(drifted_profile, 120.0, 360.0, 9);
  const double before = false_alarm_rate(Detector(*model_), drifted_test);
  const double after = false_alarm_rate(adapter.detector(), drifted_test);
  EXPECT_GT(before, 0.5);
  EXPECT_LT(after, 0.15) << "adaptation follows the wearer";
}

TEST_F(OnlineTest, ReplayPreservesAttackDetection) {
  OnlineAdapter adapter(*model_, *reservoir_);
  const auto drifted_profile = physio::drift_profile((*cohort_)[0], 0.75);
  for (std::uint64_t session = 0; session < 4; ++session) {
    const auto confirmed = physio::generate_record(drifted_profile, 60.0,
                                                   360.0, 200 + session);
    for (std::size_t start = 0; start + 1080 <= confirmed.ecg.size();
         start += 1080) {
      adapter.assimilate_genuine(
          make_window_portrait(confirmed, start, 1080));
    }
  }

  // Attack the *drifted* wearer with a donor ECG; the adapted model must
  // still catch it.
  const auto drifted_test =
      physio::generate_record(drifted_profile, 120.0, 360.0, 9);
  std::vector<physio::Record> donors{
      physio::generate_record((*cohort_)[2], 120.0, 360.0, 9)};
  attack::SubstitutionAttack attack;
  const auto attacked =
      attack::corrupt_windows(drifted_test, donors, attack, 0.5, 1080, 31);
  const auto verdicts = adapter.detector().classify_record(attacked.record);
  ml::ConfusionMatrix cm;
  for (std::size_t w = 0; w < verdicts.size(); ++w) {
    cm.add(verdicts[w].altered ? +1 : -1,
           attacked.window_altered[w] ? +1 : -1);
  }
  EXPECT_GT(cm.accuracy(), 0.8);
  EXPECT_LT(cm.false_negative_rate(), 0.35)
      << "the replay reservoir prevents forgetting the attack class";
}

TEST_F(OnlineTest, AdapterValidatesInput) {
  OnlineAdapter adapter(*model_, {});
  const std::vector<double> too_short{1.0};
  EXPECT_THROW(adapter.assimilate(too_short, 0), std::invalid_argument);
  std::vector<std::vector<double>> bad_reservoir{{1.0, 2.0}};
  EXPECT_THROW(OnlineAdapter(*model_, bad_reservoir), std::invalid_argument);
  UserModel unfitted;
  EXPECT_THROW(OnlineAdapter(unfitted, {}), std::invalid_argument);
}

TEST_F(OnlineTest, UpdatesCountGenuineAndReplaySteps) {
  OnlineAdapter adapter(*model_, *reservoir_);
  const auto rec = physio::generate_record((*cohort_)[0], 6.0, 360.0, 5);
  adapter.assimilate_genuine(make_window_portrait(rec, 0, 1080));
  EXPECT_EQ(adapter.updates(), 2u) << "one genuine step + one replay step";
  OnlineAdapter no_replay(*model_, {});
  no_replay.assimilate_genuine(make_window_portrait(rec, 0, 1080));
  EXPECT_EQ(no_replay.updates(), 1u);
}

// The documented no-forgetting-guard path: an empty positive reservoir is
// legal, performs pure genuine-class SGD (no replay interleave), and still
// tracks the drifting wearer — it just gives up the guard that keeps the
// boundary from sliding across the attack class.
TEST_F(OnlineTest, EmptyReservoirAdaptsWithoutReplaySteps) {
  OnlineAdapter adapter(*model_, {});
  const auto drifted_profile = physio::drift_profile((*cohort_)[0], 0.75);

  std::size_t genuine_windows = 0;
  for (std::uint64_t session = 0; session < 4; ++session) {
    const auto confirmed = physio::generate_record(drifted_profile, 60.0,
                                                   360.0, 400 + session);
    for (std::size_t start = 0; start + 1080 <= confirmed.ecg.size();
         start += 1080) {
      adapter.assimilate_genuine(make_window_portrait(confirmed, start, 1080));
      ++genuine_windows;
    }
  }
  ASSERT_GT(genuine_windows, 0u);
  EXPECT_EQ(adapter.updates(), genuine_windows)
      << "every update is a genuine step: no reservoir, no replay";

  const auto drifted_test =
      physio::generate_record(drifted_profile, 120.0, 360.0, 9);
  EXPECT_GT(false_alarm_rate(Detector(*model_), drifted_test), 0.5);
  EXPECT_LT(false_alarm_rate(adapter.detector(), drifted_test), 0.15)
      << "adaptation itself does not depend on the replay guard";
}

TEST_F(OnlineTest, ReservoirSamplesLookLikeAttacks) {
  ASSERT_FALSE(reservoir_->empty());
  const Detector detector(*model_);
  std::size_t flagged = 0;
  for (const auto& x : *reservoir_) {
    const auto scaled = model_->scaler.transform(x);
    if (model_->svm.decision_value(scaled) >= 0.0) ++flagged;
  }
  EXPECT_GT(static_cast<double>(flagged) /
                static_cast<double>(reservoir_->size()),
            0.85)
      << "reservoir exemplars sit on the positive side of the boundary";
}

}  // namespace
}  // namespace sift::core
