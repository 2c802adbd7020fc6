// Tests for the SIFT trainer, detector, and the Table II experiment
// harness — the end-to-end core pipeline on a small synthetic cohort.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "alloc_guard.hpp"
#include "attack/attack.hpp"
#include "attack/scenario.hpp"
#include "core/detector.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "core/windows.hpp"
#include "io/framed.hpp"
#include "io/model_file.hpp"
#include "physio/dataset.hpp"
#include "simd/simd.hpp"

namespace sift::core {
namespace {

// Shared expensive setup: small cohort, short training (keeps tests fast
// while exercising the identical code paths as the paper protocol).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cohort_ = new std::vector(physio::synthetic_cohort(4, 123));
    training_ =
        new std::vector(physio::generate_cohort_records(*cohort_, 180.0));
    testing_ = new std::vector(physio::generate_cohort_records(
        *cohort_, 120.0, physio::kDefaultRateHz, /*salt=*/5));
  }
  static void TearDownTestSuite() {
    delete cohort_;
    delete training_;
    delete testing_;
    cohort_ = nullptr;
    training_ = nullptr;
    testing_ = nullptr;
  }

  static UserModel train(DetectorVersion version,
                         Arithmetic arith = Arithmetic::kDouble) {
    SiftConfig config;
    config.version = version;
    config.arithmetic = arith;
    return train_user_model((*training_)[0],
                            std::span(*training_).subspan(1), config);
  }

  static std::vector<physio::UserProfile>* cohort_;
  static std::vector<physio::Record>* training_;
  static std::vector<physio::Record>* testing_;
};

std::vector<physio::UserProfile>* PipelineTest::cohort_ = nullptr;
std::vector<physio::Record>* PipelineTest::training_ = nullptr;
std::vector<physio::Record>* PipelineTest::testing_ = nullptr;

// --- windows helpers -------------------------------------------------------------

TEST(Windows, PeaksInRangeRebasesAndFilters) {
  const std::vector<std::size_t> peaks{5, 100, 1000, 1080, 2000};
  const auto out = peaks_in_range(peaks, 100, 1000);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 900, 980}));
  EXPECT_TRUE(peaks_in_range(peaks, 3000, 100).empty());
}

TEST_F(PipelineTest, ExtractWindowFeaturesCountsWindows) {
  const auto& rec = (*training_)[0];
  const auto feats = extract_window_features(rec, 1080, 1080,
                                             DetectorVersion::kOriginal,
                                             Arithmetic::kDouble);
  EXPECT_EQ(feats.size(), rec.ecg.size() / 1080);
  for (const auto& f : feats) EXPECT_EQ(f.size(), 8u);
  // Overlapping stride doubles (minus edge) the count.
  const auto dense = extract_window_features(rec, 1080, 540,
                                             DetectorVersion::kOriginal,
                                             Arithmetic::kDouble);
  EXPECT_GT(dense.size(), feats.size() * 2 - 2);
}

TEST(Windows, ExtractOnShortRecordIsEmpty) {
  physio::Record rec;
  rec.ecg = signal::Series(360.0, std::vector<double>(100, 0.0));
  rec.abp = signal::Series(360.0, std::vector<double>(100, 1.0));
  EXPECT_TRUE(extract_window_features(rec, 1080, 1080,
                                      DetectorVersion::kReduced,
                                      Arithmetic::kDouble)
                  .empty());
}

// --- trainer ---------------------------------------------------------------------

TEST_F(PipelineTest, TrainerProducesFittedModel) {
  const UserModel model = train(DetectorVersion::kOriginal);
  EXPECT_EQ(model.user_id, (*cohort_)[0].user_id);
  EXPECT_EQ(model.svm.w.size(), 8u);
  EXPECT_TRUE(model.scaler.fitted());
}

TEST_F(PipelineTest, TrainerValidatesInputs) {
  SiftConfig config;
  EXPECT_THROW(
      train_user_model((*training_)[0], std::span<const physio::Record>{},
                       config),
      std::invalid_argument);
  physio::Record tiny;
  tiny.ecg = signal::Series(360.0, std::vector<double>(10, 0.0));
  tiny.abp = signal::Series(360.0, std::vector<double>(10, 0.0));
  EXPECT_THROW(
      train_user_model(tiny, std::span(*training_).subspan(1), config),
      std::invalid_argument);
}

TEST_F(PipelineTest, TrainingIsDeterministic) {
  const UserModel a = train(DetectorVersion::kSimplified);
  const UserModel b = train(DetectorVersion::kSimplified);
  EXPECT_EQ(a.svm.w, b.svm.w);
  EXPECT_DOUBLE_EQ(a.svm.b, b.svm.b);
}

TEST_F(PipelineTest, ModelSeparatesTrainingClasses) {
  // Sanity: the trained model should label the wearer's own windows
  // negative and donor-hybrid windows positive, on training data.
  const UserModel model = train(DetectorVersion::kOriginal);
  const Detector detector(model);
  const auto own = detector.classify_record((*training_)[0]);
  std::size_t own_neg = 0;
  for (const auto& v : own) {
    if (!v.altered) ++own_neg;
  }
  EXPECT_GT(static_cast<double>(own_neg) / static_cast<double>(own.size()),
            0.9);
}

// --- detector --------------------------------------------------------------------

TEST_F(PipelineTest, DetectorFlagsSubstitutedWindows) {
  for (auto version : {DetectorVersion::kOriginal,
                       DetectorVersion::kSimplified,
                       DetectorVersion::kReduced}) {
    const Detector detector(train(version));
    attack::SubstitutionAttack attack;
    const auto attacked = attack::corrupt_windows(
        (*testing_)[0], std::span(*testing_).subspan(1), attack, 0.5, 1080,
        99);
    const auto verdicts = detector.classify_record(attacked.record);
    ASSERT_EQ(verdicts.size(), attacked.window_altered.size());
    ml::ConfusionMatrix cm;
    for (std::size_t w = 0; w < verdicts.size(); ++w) {
      cm.add(verdicts[w].altered ? +1 : -1,
             attacked.window_altered[w] ? +1 : -1);
    }
    // Reduced-scale setup (4 users, 3 min training) trades accuracy for
    // test runtime; the full protocol (bench/table2) clears 90%+.
    EXPECT_GT(cm.accuracy(), 0.7) << to_string(version);
  }
}

TEST_F(PipelineTest, CleanTraceRaisesFewAlerts) {
  const Detector detector(train(DetectorVersion::kOriginal));
  const auto verdicts = detector.classify_record((*testing_)[0]);
  std::size_t alerts = 0;
  for (const auto& v : verdicts) {
    if (v.altered) ++alerts;
  }
  EXPECT_LT(static_cast<double>(alerts) / static_cast<double>(verdicts.size()),
            0.2)
      << "false-positive rate on a clean unseen trace";
}

TEST_F(PipelineTest, DecisionValueSignMatchesLabel) {
  const Detector detector(train(DetectorVersion::kReduced));
  const auto verdicts = detector.classify_record((*testing_)[0]);
  for (const auto& v : verdicts) {
    EXPECT_EQ(v.altered, v.decision_value >= 0.0);
    EXPECT_EQ(v.features.size(), 5u);
  }
}

TEST_F(PipelineTest, ClassifyRecordCoversWholeTrace) {
  const Detector detector(train(DetectorVersion::kOriginal));
  const auto verdicts = detector.classify_record((*testing_)[0]);
  EXPECT_EQ(verdicts.size(), 40u) << "2 min / 3 s windows";
}

// --- memory discipline -------------------------------------------------------------

TEST_F(PipelineTest, ScratchClassifyMatchesAllocatingClassify) {
  // The scratch-based steady-state path must be bit-identical to the
  // historical allocating path, window for window.
  for (auto version : {DetectorVersion::kOriginal,
                       DetectorVersion::kSimplified,
                       DetectorVersion::kReduced}) {
    const Detector detector(train(version));
    const auto& rec = (*testing_)[0];
    WindowScratch scratch;
    constexpr std::size_t kWindow = 1080;
    for (std::size_t start = 0; start + kWindow <= rec.ecg.size();
         start += kWindow) {
      const Portrait fresh = make_window_portrait(rec, start, kWindow);
      const DetectionResult a = detector.classify(fresh);
      make_window_portrait_into(rec, start, kWindow, scratch);
      const DetectionResult b = detector.classify(scratch.portrait, scratch);
      EXPECT_EQ(a.altered, b.altered) << to_string(version);
      EXPECT_EQ(a.decision_value, b.decision_value) << to_string(version);
      EXPECT_EQ(a.peak_check_failed, b.peak_check_failed);
      EXPECT_EQ(a.features, b.features) << to_string(version);
    }
  }
}

TEST_F(PipelineTest, SteadyStateClassifyIsAllocationFree) {
  // After one warm-up pass (which sizes every scratch buffer to the
  // record's worst-case window), classifying windows through the scratch
  // arena must perform zero heap allocations — the invariant that lets a
  // fleet worker classify millions of windows without touching malloc.
  const Detector detector(train(DetectorVersion::kOriginal));
  const auto& rec = (*testing_)[0];
  WindowScratch scratch;
  constexpr std::size_t kWindow = 1080;

  auto classify_all = [&] {
    double sink = 0.0;
    for (std::size_t start = 0; start + kWindow <= rec.ecg.size();
         start += kWindow) {
      make_window_portrait_into(rec, start, kWindow, scratch);
      sink += detector.classify(scratch.portrait, scratch).decision_value;
    }
    return sink;
  };

  const double warm = classify_all();  // warm-up: buffers reach capacity
  sift::testing::AllocGuard guard;
  const double steady = classify_all();
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state classify must not heap-allocate";
  EXPECT_EQ(warm, steady) << "warm-up must not change verdicts";
}

TEST_F(PipelineTest, SteadyStateClassifyIsAllocationFreeAtEverySimdLevel) {
  // The kernels on the hot path (the portrait's normalise-and-bin pass,
  // scaler, SVM dot) must preserve the zero-steady-state-alloc invariant
  // at every dispatch level, and every level must produce the same
  // verdicts.
  const Detector detector(train(DetectorVersion::kOriginal));
  const auto& rec = (*testing_)[0];
  WindowScratch scratch;
  constexpr std::size_t kWindow = 1080;

  auto classify_all = [&] {
    double sink = 0.0;
    for (std::size_t start = 0; start + kWindow <= rec.ecg.size();
         start += kWindow) {
      make_window_portrait_into(rec, start, kWindow, scratch);
      sink += detector.classify(scratch.portrait, scratch).decision_value;
    }
    return sink;
  };

  const sift::simd::Level before = sift::simd::active_level();
  const double warm = classify_all();
  for (const sift::simd::Level level : sift::simd::available_levels()) {
    ASSERT_TRUE(sift::simd::set_active_level(level));
    sift::testing::AllocGuard guard;
    const double sum = classify_all();
    EXPECT_EQ(guard.count(), 0u)
        << "allocation on the hot path at level "
        << sift::simd::to_string(level);
    EXPECT_EQ(sum, warm) << "decision values drifted at level "
                         << sift::simd::to_string(level);
  }
  ASSERT_TRUE(sift::simd::set_active_level(before));
}

TEST_F(PipelineTest, ColumnAveragesIntoIsAllocationFreeAndLevelInvariant) {
  // The column-average curve is read straight from the column counts the
  // portrait's binning pass produces: integers, exact in any order, so
  // every level must agree bit-for-bit, and rebinning a window, copying
  // its summary and extracting the matrix features from it must never
  // allocate once the arena is warm.
  const auto& rec = (*testing_)[0];
  WindowScratch scratch;
  FeatureVector features;
  auto extract = [&] {
    make_window_portrait_into(rec, 0, 1080, scratch);
    scratch.matrix.rebuild(scratch.portrait, 50);
    extract_features_into(scratch.portrait, scratch.matrix,
                          DetectorVersion::kOriginal, Arithmetic::kDouble,
                          features);
  };
  extract();  // warm-up

  const sift::simd::Level before = sift::simd::active_level();
  std::vector<double> reference_avg;
  FeatureVector reference_features;
  for (const sift::simd::Level level : sift::simd::available_levels()) {
    ASSERT_TRUE(sift::simd::set_active_level(level));
    {
      sift::testing::AllocGuard guard;
      extract();
      EXPECT_EQ(guard.count(), 0u)
          << "column summary allocated at level "
          << sift::simd::to_string(level);
    }
    const auto avg = scratch.matrix.column_averages();
    if (reference_avg.empty()) {
      reference_avg = avg;
      reference_features = features;
    } else {
      EXPECT_EQ(avg, reference_avg)
          << "column averages differ at level " << sift::simd::to_string(level);
      EXPECT_EQ(features, reference_features)
          << "matrix features differ at level "
          << sift::simd::to_string(level);
    }
  }
  ASSERT_TRUE(sift::simd::set_active_level(before));
}

TEST_F(PipelineTest, MixedGeometriesShareOneArenaBitwise) {
  // One thread's arena classifies 3 s and 4 s windows (1080 / 1440
  // samples) for models binned at n = 50 and n = 100, interleaved, so the
  // portrait changes window length and grid size on a warm arena. Every
  // verdict must match a fresh arena bit for bit, and once the arena has
  // seen the largest geometry no window may allocate.
  struct Case {
    double window_s;
    std::size_t grid_n;
  };
  const Case cases[] = {{3.0, 50}, {4.0, 100}, {4.0, 50}, {3.0, 100}};
  std::vector<Detector> detectors;
  for (const Case& c : cases) {
    SiftConfig config;
    config.window_s = c.window_s;
    config.grid_n = c.grid_n;
    detectors.emplace_back(train_user_model(
        (*training_)[0], std::span(*training_).subspan(1), config));
  }
  const auto& rec = (*testing_)[0];
  constexpr std::size_t kStride = 1440;
  auto classify = [&](std::size_t d, std::size_t start, WindowScratch& arena) {
    const auto window = static_cast<std::size_t>(
        cases[d].window_s * physio::kDefaultRateHz + 0.5);
    make_window_portrait_into(rec, start, window, arena, cases[d].grid_n);
    return detectors[d].classify(arena.portrait, arena);
  };

  std::vector<DetectionResult> fresh;
  for (std::size_t start = 0; start + kStride <= rec.ecg.size();
       start += kStride) {
    for (std::size_t d = 0; d < detectors.size(); ++d) {
      WindowScratch arena;
      fresh.push_back(classify(d, start, arena));
    }
  }

  WindowScratch& arena = thread_scratch();
  auto interleaved = [&] {
    std::vector<DetectionResult> out;
    out.reserve(fresh.size());
    for (std::size_t start = 0; start + kStride <= rec.ecg.size();
         start += kStride) {
      for (std::size_t d = 0; d < detectors.size(); ++d) {
        out.push_back(classify(d, start, arena));
      }
    }
    return out;
  };
  // Warm-up: the arena reaches the largest geometry.
  std::vector<DetectionResult> steady = interleaved();
  {
    sift::testing::AllocGuard guard;
    std::size_t i = 0;
    for (std::size_t start = 0; start + kStride <= rec.ecg.size();
         start += kStride) {
      for (std::size_t d = 0; d < detectors.size(); ++d) {
        steady[i++] = classify(d, start, arena);
      }
    }
    EXPECT_EQ(guard.count(), 0u) << "a warm arena allocated";
  }

  ASSERT_EQ(steady.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Case& c = cases[i % std::size(cases)];
    ASSERT_EQ(steady[i].features.size(), fresh[i].features.size());
    for (std::size_t f = 0; f < fresh[i].features.size(); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(steady[i].features[f]),
                std::bit_cast<std::uint64_t>(fresh[i].features[f]))
          << "window " << i / std::size(cases) << " at " << c.window_s
          << " s / n = " << c.grid_n << ", feature " << f;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(steady[i].decision_value),
              std::bit_cast<std::uint64_t>(fresh[i].decision_value));
    EXPECT_EQ(steady[i].altered, fresh[i].altered);
    EXPECT_EQ(steady[i].peak_check_failed, fresh[i].peak_check_failed);
  }
}

// --- training windows --------------------------------------------------------

// Training builds every window in the thread's arena, so once that arena
// has seen a grid size, a pass allocates only the returned feature
// vectors: the same number of allocations and bytes at any grid. A fresh
// Portrait per window would add the n x n cell grid (4 n^2 bytes) each.
TEST(TrainingWindows, AllocationsDoNotScaleWithGrid) {
  const auto cohort = physio::synthetic_cohort(1, 7);
  const physio::Record rec = physio::generate_record(cohort[0], 30.0);
  constexpr std::size_t kWindow = 1080;
  constexpr std::size_t kStride = 540;
  const auto measure = [&](std::size_t grid_n) {
    (void)extract_window_features(rec, kWindow, kStride,
                                  DetectorVersion::kOriginal,
                                  Arithmetic::kDouble, grid_n);  // warm-up
    sift::testing::AllocGuard guard;
    const auto points = extract_window_features(
        rec, kWindow, kStride, DetectorVersion::kOriginal, Arithmetic::kDouble,
        grid_n);
    EXPECT_EQ(points.size(), 19u);
    return std::pair{guard.count(), guard.bytes()};
  };
  const auto small = measure(10);
  const auto large = measure(120);
  EXPECT_EQ(small.first, large.first);
  EXPECT_EQ(small.second, large.second);
  // One feature vector per window, plus the outer vector's growth.
  EXPECT_LE(large.first, 19u + 8u);
  EXPECT_LT(large.second, 120u * 120u);
}

// --- trainer golden ----------------------------------------------------------

struct ModelDigest {
  std::uint32_t crc = 0;
  std::size_t size = 0;
  bool operator==(const ModelDigest&) const = default;
};

ModelDigest digest(const UserModel& model) {
  std::ostringstream os;
  io::write_user_model(os, model);
  const std::string bytes = os.str();
  return {io::crc32(std::span(
              reinterpret_cast<const std::uint8_t*>(bytes.data()),
              bytes.size())),
          bytes.size()};
}

// crc32 and size of io::write_user_model's output for 4 users (cohort seed
// 2017, 60 s of training each, every other user a donor) x 3 tiers x
// augment_attack_positives {off, on} x the 3 arithmetics. Recorded from the
// row-wise trainer (ml::Dataset rows, StandardScaler::fit(Dataset),
// DcdTrainer::train) before training moved to the columnar fit, so it
// checks the columnar path against an independent implementation.
TEST(TrainerGolden, ModelBytesMatchParent) {
  constexpr ModelDigest kGolden[] = {
      // augment off, double: users 0-3 x (Original, Simplified, Reduced)
      {0xce4d7c53u, 689}, {0x57ed0cc8u, 690}, {0x91d52e1fu, 494},
      {0xcb15814eu, 687}, {0xc5a63c5fu, 691}, {0xc2a0b3f1u, 497},
      {0x7b0a6802u, 688}, {0xb99f7ad8u, 691}, {0xd21cffa0u, 497},
      {0x4391143fu, 689}, {0x91f54480u, 692}, {0x328ceb66u, 499},
      // augment off, float32: users 0-3 x (Original, Simplified, Reduced)
      {0x2e1a9d69u, 689}, {0x63c977e7u, 693}, {0x77e8c027u, 497},
      {0xa57b85ccu, 682}, {0x416b6760u, 684}, {0x9a6eafb9u, 498},
      {0x74db1711u, 690}, {0x770b9c45u, 692}, {0x7379a462u, 498},
      {0x794583abu, 688}, {0x02108bcau, 690}, {0xb55af099u, 497},
      // augment off, Q16: users 0-3 x (Original, Simplified, Reduced)
      {0x3893f4b3u, 688}, {0xb8613f12u, 690}, {0xec6d7536u, 495},
      {0x3f04df7cu, 689}, {0xc0f5a9d7u, 691}, {0x75559cfcu, 497},
      {0xcecfe37du, 689}, {0xc35e9029u, 693}, {0xab107f61u, 496},
      {0xfe1e08ccu, 679}, {0xdbf60e95u, 693}, {0xef5eeba4u, 499},
      // augment on, double: users 0-3 x (Original, Simplified, Reduced)
      {0xc604c9d5u, 687}, {0x6deef2cbu, 692}, {0xe350d134u, 496},
      {0x41f0b068u, 691}, {0x9a536575u, 690}, {0xe0b11e28u, 497},
      {0xc44d876bu, 691}, {0x1095ee7du, 690}, {0xc60f28e3u, 498},
      {0xa6e159d9u, 689}, {0xb763c541u, 693}, {0x3b4bbd1fu, 498},
      // augment on, float32: users 0-3 x (Original, Simplified, Reduced)
      {0xfa38c9fdu, 691}, {0xbb27e5b8u, 692}, {0x96b81cfeu, 496},
      {0x9b5f96c7u, 692}, {0x66156a4au, 691}, {0x2bf534c4u, 499},
      {0x10657023u, 691}, {0x4bc814a6u, 691}, {0x886c1646u, 498},
      {0xdd75808bu, 692}, {0xec8edf0cu, 692}, {0xb2c340c3u, 499},
      // augment on, Q16: users 0-3 x (Original, Simplified, Reduced)
      {0x7a7f66feu, 691}, {0xae99fc07u, 683}, {0xfbde736du, 488},
      {0xc858c87eu, 691}, {0x91b2c940u, 690}, {0x4eee4b68u, 496},
      {0xc610cfa2u, 691}, {0xe54dca83u, 679}, {0x68fabf0bu, 497},
      {0xb17e6a7fu, 691}, {0x2c308510u, 689}, {0x95b2ce3fu, 497},
  };
  const auto records =
      physio::generate_cohort_records(physio::synthetic_cohort(4, 2017), 60.0);
  std::size_t i = 0;
  for (const bool augment : {false, true}) {
    for (const auto arithmetic :
         {Arithmetic::kDouble, Arithmetic::kFloat32, Arithmetic::kFixedQ16}) {
      SiftConfig config;
      config.arithmetic = arithmetic;
      config.augment_attack_positives = augment;
      for (std::size_t k = 0; k < records.size(); ++k) {
        std::vector<const physio::Record*> donors;
        for (std::size_t j = 0; j < records.size(); ++j) {
          if (j != k) donors.push_back(&records[j]);
        }
        const auto tiers = train_user_models(records[k], donors, config);
        ASSERT_EQ(tiers.size(), kTiers.size());
        for (std::size_t t = 0; t < kTiers.size(); ++t, ++i) {
          config.version = kTiers[t];
          const std::string where = std::string("augment ") +
                                    (augment ? "on" : "off") + ", " +
                                    to_string(arithmetic) + ", user " +
                                    std::to_string(k) + ", " +
                                    to_string(kTiers[t]);
          EXPECT_EQ(tiers[t].config.version, kTiers[t]) << where;
          EXPECT_TRUE(digest(tiers[t]) == kGolden[i]) << where;
          EXPECT_TRUE(digest(train_user_model(records[k], donors, config)) ==
                      kGolden[i])
              << where;
        }
      }
    }
  }
  EXPECT_EQ(i, std::size(kGolden));
}

// --- experiment harness -----------------------------------------------------------

TEST(Experiment, SmallCohortReproducesTableIiShape) {
  ExperimentConfig config;
  config.n_users = 4;
  config.train_duration_s = 180.0;  // shortened for test runtime
  config.sift.version = DetectorVersion::kOriginal;
  const auto result = run_detection_experiment(config);
  EXPECT_EQ(result.subjects.size(), 4u);
  for (const auto& s : result.subjects) {
    EXPECT_EQ(s.confusion.total(), 40u);
  }
  EXPECT_GT(result.summary.accuracy, 0.85);
  EXPECT_GT(result.summary.f1, 0.80);
}

TEST(Experiment, RequiresAtLeastTwoUsers) {
  ExperimentConfig config;
  config.n_users = 1;
  EXPECT_THROW(generate_experiment_data(config), std::invalid_argument);
}

// A worker's exception reaches the caller: training records shorter than
// one window make every train_user_model throw on its pool worker.
TEST(Experiment, ShortTrainingRecordThrows) {
  ExperimentConfig config;
  config.n_users = 3;
  config.train_duration_s = 1.0;
  config.test_duration_s = 12.0;
  EXPECT_THROW(run_detection_experiment(config), std::invalid_argument);
}

TEST(Experiment, PreGeneratedDataPathMatchesDirectPath) {
  ExperimentConfig config;
  config.n_users = 3;
  config.train_duration_s = 120.0;
  config.sift.version = DetectorVersion::kReduced;
  attack::SubstitutionAttack attack;
  const auto direct = run_detection_experiment(config, attack);
  const auto data = generate_experiment_data(config);
  const auto staged = run_detection_experiment(config, data, attack);
  EXPECT_DOUBLE_EQ(direct.summary.accuracy, staged.summary.accuracy);
  EXPECT_DOUBLE_EQ(direct.summary.f1, staged.summary.f1);
}

}  // namespace
}  // namespace sift::core
