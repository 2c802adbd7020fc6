// Unit tests for sift::ml — scaler, SVM trainers, metrics, CV, codegen.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ml/codegen.hpp"
#include "ml/crossval.hpp"
#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"

namespace sift::ml {
namespace {

// Two Gaussian blobs around +mu and -mu in d dimensions.
Dataset make_blobs(std::size_t n_per_class, std::size_t d, double mu,
                   double sd, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, sd);
  Dataset data;
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (int y : {+1, -1}) {
      LabeledPoint p;
      p.y = y;
      for (std::size_t j = 0; j < d; ++j) {
        p.x.push_back(y * mu + noise(rng));
      }
      data.push_back(std::move(p));
    }
  }
  return data;
}

double holdout_accuracy(const LinearSvmModel& model, const Dataset& test) {
  ConfusionMatrix cm;
  for (const auto& p : test) cm.add(model.predict(p.x), p.y);
  return cm.accuracy();
}

// --- dataset helpers -----------------------------------------------------------

TEST(Dataset, FeatureDimValidation) {
  Dataset empty;
  EXPECT_THROW(feature_dim(empty), std::invalid_argument);
  Dataset ragged{{{1.0, 2.0}, +1}, {{1.0}, -1}};
  EXPECT_THROW(feature_dim(ragged), std::invalid_argument);
  Dataset ok{{{1.0, 2.0}, +1}, {{3.0, 4.0}, -1}};
  EXPECT_EQ(feature_dim(ok), 2u);
}

// --- scaler ---------------------------------------------------------------------

TEST(Scaler, TransformStandardizesTrainingData) {
  Dataset data{{{0.0, 100.0}, +1}, {{2.0, 300.0}, -1}, {{4.0, 500.0}, +1}};
  StandardScaler scaler;
  scaler.fit(data);
  const Dataset out = scaler.transform(data);
  for (std::size_t j = 0; j < 2; ++j) {
    double m = 0.0;
    for (const auto& p : out) m += p.x[j];
    EXPECT_NEAR(m / 3.0, 0.0, 1e-12);
  }
  EXPECT_NEAR(out[0].x[1], -std::sqrt(1.5), 1e-9);
}

TEST(Scaler, ZeroVarianceDimensionGetsUnitScale) {
  Dataset data{{{1.0, 7.0}, +1}, {{2.0, 7.0}, -1}};
  StandardScaler scaler;
  scaler.fit(data);
  EXPECT_DOUBLE_EQ(scaler.scale()[1], 1.0);
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{1.5, 7.0})[1], 0.0);
}

TEST(Scaler, ThrowsWhenUnfittedOrMismatched) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::logic_error);
  Dataset data{{{1.0}, +1}, {{2.0}, -1}};
  scaler.fit(data);
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Scaler, FromParamsRoundTrip) {
  const auto sc = StandardScaler::from_params({1.0, 2.0}, {0.5, 2.0});
  const auto out = sc.transform(std::vector<double>{2.0, 6.0});
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_THROW(StandardScaler::from_params({1.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(StandardScaler::from_params({1.0}, {0.0}),
               std::invalid_argument);
}

// --- SVM -----------------------------------------------------------------------

TEST(Svm, DecisionValueIsAffine) {
  LinearSvmModel m{{2.0, -1.0}, 0.5};
  const std::vector<double> above{1.0, 1.0};
  const std::vector<double> below{-1.0, 1.0};
  const std::vector<double> too_short{1.0};
  EXPECT_DOUBLE_EQ(m.decision_value(above), 1.5);
  EXPECT_EQ(m.predict(above), +1);
  EXPECT_EQ(m.predict(below), -1);
  EXPECT_THROW(m.decision_value(too_short), std::invalid_argument);
}

TEST(Svm, TrainersValidateInput) {
  const TrainConfig cfg;
  for (const SvmTrainer* t :
       {static_cast<const SvmTrainer*>(new SmoTrainer()),
        static_cast<const SvmTrainer*>(new DcdTrainer())}) {
    Dataset empty;
    EXPECT_THROW(t->train(empty, cfg), std::invalid_argument);
    Dataset bad_label{{{1.0}, 0}, {{2.0}, +1}};
    EXPECT_THROW(t->train(bad_label, cfg), std::invalid_argument);
    Dataset one_class{{{1.0}, +1}, {{2.0}, +1}};
    EXPECT_THROW(t->train(one_class, cfg), std::invalid_argument);
    delete t;
  }
}

class TrainerParamTest : public ::testing::TestWithParam<bool> {
 protected:
  LinearSvmModel train(const Dataset& data, const TrainConfig& cfg) const {
    if (GetParam()) return SmoTrainer{}.train(data, cfg);
    return DcdTrainer{}.train(data, cfg);
  }
};

TEST_P(TrainerParamTest, SeparatesWellSeparatedBlobs) {
  const Dataset train_set = make_blobs(100, 4, 2.0, 0.5, 1);
  const Dataset test_set = make_blobs(100, 4, 2.0, 0.5, 2);
  const LinearSvmModel model = train(train_set, TrainConfig{});
  EXPECT_GT(holdout_accuracy(model, test_set), 0.99);
}

TEST_P(TrainerParamTest, HandlesOverlappingBlobsGracefully) {
  const Dataset train_set = make_blobs(150, 4, 0.5, 1.0, 3);
  const Dataset test_set = make_blobs(150, 4, 0.5, 1.0, 4);
  const LinearSvmModel model = train(train_set, TrainConfig{});
  // Bayes-optimal is ~84% here; a sane SVM should clear 75%.
  EXPECT_GT(holdout_accuracy(model, test_set), 0.75);
}

TEST_P(TrainerParamTest, DeterministicForFixedSeed) {
  const Dataset data = make_blobs(50, 3, 1.0, 0.5, 5);
  TrainConfig cfg;
  cfg.seed = 9;
  const auto a = train(data, cfg);
  const auto b = train(data, cfg);
  EXPECT_EQ(a.w, b.w);
  EXPECT_DOUBLE_EQ(a.b, b.b);
}

TEST_P(TrainerParamTest, UnbalancedClassesStillLearn) {
  Dataset data = make_blobs(20, 3, 1.5, 0.4, 6);
  // Quadruple the negatives.
  Dataset extra = make_blobs(60, 3, 1.5, 0.4, 7);
  for (auto& p : extra) {
    if (p.y == -1) data.push_back(p);
  }
  const LinearSvmModel model = train(data, TrainConfig{});
  const Dataset test_set = make_blobs(50, 3, 1.5, 0.4, 8);
  EXPECT_GT(holdout_accuracy(model, test_set), 0.95);
}

INSTANTIATE_TEST_SUITE_P(BothTrainers, TrainerParamTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "SMO" : "DCD";
                         });

TEST(Svm, SmoAndDcdAgreeOnPredictions) {
  const Dataset train_set = make_blobs(100, 4, 1.5, 0.6, 10);
  const Dataset test_set = make_blobs(200, 4, 1.5, 0.6, 11);
  const auto smo = SmoTrainer{}.train(train_set, TrainConfig{});
  const auto dcd = DcdTrainer{}.train(train_set, TrainConfig{});
  std::size_t agree = 0;
  for (const auto& p : test_set) {
    if (smo.predict(p.x) == dcd.predict(p.x)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(test_set.size()),
            0.97)
      << "both solve the same dual; predictions should nearly coincide";
}

TEST(Svm, SmallCKeepsWeightsSmall) {
  const Dataset data = make_blobs(50, 2, 1.0, 0.8, 12);
  TrainConfig tight;
  tight.c = 0.01;
  TrainConfig loose;
  loose.c = 100.0;
  const auto wt = DcdTrainer{}.train(data, tight);
  const auto wl = DcdTrainer{}.train(data, loose);
  auto norm = [](const LinearSvmModel& m) {
    double s = 0.0;
    for (double w : m.w) s += w * w;
    return s;
  };
  EXPECT_LT(norm(wt), norm(wl));
}

// --- metrics --------------------------------------------------------------------

TEST(Metrics, DefinitionsMatchThePaper) {
  ConfusionMatrix cm;
  // 3 altered windows: 2 caught, 1 missed. 5 genuine: 4 ok, 1 false alert.
  cm.add(+1, +1);
  cm.add(+1, +1);
  cm.add(-1, +1);
  for (int i = 0; i < 4; ++i) cm.add(-1, -1);
  cm.add(+1, -1);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(cm.false_negative_rate(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 2.0 / 3.0);
}

TEST(Metrics, EmptyMatrixYieldsZeros) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.false_negative_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
}

TEST(Metrics, MergeAddsCounts) {
  ConfusionMatrix a;
  a.add(+1, +1);
  ConfusionMatrix b;
  b.add(-1, -1);
  a.merge(b);
  EXPECT_EQ(a.tp(), 1u);
  EXPECT_EQ(a.tn(), 1u);
  EXPECT_DOUBLE_EQ(a.accuracy(), 1.0);
}

TEST(Metrics, AverageIsPerSubjectNotPooled) {
  // The paper averages per-subject rates; a pooled matrix would weight
  // subjects by window count. Verify the distinction.
  ConfusionMatrix s1;  // perfect on 2 windows
  s1.add(+1, +1);
  s1.add(-1, -1);
  ConfusionMatrix s2;  // 50% on 2 windows
  s2.add(+1, +1);
  s2.add(+1, -1);
  const auto avg = average_metrics(std::vector<ConfusionMatrix>{s1, s2});
  EXPECT_DOUBLE_EQ(avg.accuracy, 0.75);
  EXPECT_DOUBLE_EQ(avg.fp_rate, 0.5);  // (0 + 1) / 2
}

// --- cross-validation -----------------------------------------------------------

TEST(CrossVal, StratifiedFoldsScoreSeparableData) {
  const Dataset data = make_blobs(60, 3, 2.0, 0.5, 20);
  const auto result =
      cross_validate(data, DcdTrainer{}, TrainConfig{}, 5, 1);
  EXPECT_EQ(result.folds, 5u);
  EXPECT_GT(result.mean.accuracy, 0.97);
}

TEST(CrossVal, ValidatesArguments) {
  const Dataset data = make_blobs(10, 2, 1.0, 0.5, 21);
  EXPECT_THROW(cross_validate(data, DcdTrainer{}, TrainConfig{}, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(cross_validate(data, DcdTrainer{}, TrainConfig{}, 11, 1),
               std::invalid_argument);
}

// --- codegen --------------------------------------------------------------------

TEST(Codegen, FoldedModelMatchesScalerPlusModel) {
  const Dataset data = make_blobs(80, 5, 1.2, 0.7, 30);
  StandardScaler scaler;
  scaler.fit(data);
  const auto model = DcdTrainer{}.train(scaler.transform(data), TrainConfig{});
  const auto folded = fold_scaler(scaler, model);
  std::mt19937_64 rng(31);
  std::normal_distribution<double> noise(0.0, 2.0);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x(5);
    for (double& v : x) v = noise(rng);
    EXPECT_NEAR(folded.decision_value(x),
                model.decision_value(scaler.transform(x)), 1e-9);
  }
}

TEST(Codegen, EmittedCIsSelfContainedAmuletDialect) {
  const Dataset data = make_blobs(40, 8, 1.0, 0.5, 32);
  StandardScaler scaler;
  scaler.fit(data);
  const auto model = DcdTrainer{}.train(scaler.transform(data), TrainConfig{});
  const std::string c = emit_c_prediction_function("sift_predict", scaler,
                                                   model);
  EXPECT_NE(c.find("int sift_predict(const double features[8])"),
            std::string::npos);
  EXPECT_NE(c.find("return acc >= 0.0 ? 1 : 0;"), std::string::npos);
  EXPECT_EQ(c.find("double *"), std::string::npos) << "no pointers";
  EXPECT_EQ(c.find("sqrt"), std::string::npos) << "no libm";
  // One accumulate line per feature.
  std::size_t count = 0;
  for (std::size_t pos = c.find("acc +="); pos != std::string::npos;
       pos = c.find("acc +=", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 8u);
}

TEST(Codegen, FoldValidatesDimensions) {
  StandardScaler scaler;
  LinearSvmModel model{{1.0, 2.0}, 0.0};
  EXPECT_THROW(fold_scaler(scaler, model), std::invalid_argument);
  Dataset data{{{1.0}, +1}, {{2.0}, -1}};
  scaler.fit(data);
  EXPECT_THROW(fold_scaler(scaler, model), std::invalid_argument);
}

}  // namespace
}  // namespace sift::ml
