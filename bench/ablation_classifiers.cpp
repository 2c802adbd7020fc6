// Ablation: classifier choice (the paper's "SVM performed the best among
// the algorithms we tried", reproduced).
//
// Same features, same protocol, three classifiers:
//   * linear SVM          — the paper's choice (dual coordinate descent)
//   * logistic regression — same linear surface, log-loss
//   * one-class Gaussian  — anomaly-detection baseline fitted on genuine
//                           windows ONLY (no attack/donor data needed)
#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "attack/attack.hpp"
#include "attack/scenario.hpp"
#include "core/experiment.hpp"
#include "core/windows.hpp"
#include "ml/logistic.hpp"
#include "ml/one_class.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"

namespace {

using namespace sift;

// Builds the per-user training dataset exactly as core::train_user_model
// does (negatives: own windows; positives: donor ECG over own ABP).
ml::Dataset training_set(const physio::Record& wearer,
                         const std::vector<physio::Record>& donors,
                         core::DetectorVersion version) {
  const std::size_t window = 1080;
  const std::size_t stride = 540;
  ml::Dataset data;
  for (auto& x : core::extract_window_features(wearer, window, stride,
                                               version,
                                               core::Arithmetic::kDouble)) {
    data.push_back({std::move(x), -1});
  }
  const std::size_t n_negative = data.size();
  ml::Dataset positives;
  for (const auto& donor : donors) {
    for (auto& x : core::extract_window_features(donor, wearer, window,
                                                 stride, version,
                                                 core::Arithmetic::kDouble)) {
      positives.push_back({std::move(x), +1});
    }
  }
  // Shuffle across donors before balancing — truncating the raw
  // concatenation would keep only the first donor's positives and starve
  // the classifier of inter-user variety (core::train_user_model does the
  // same).
  std::mt19937_64 rng(99);
  std::shuffle(positives.begin(), positives.end(), rng);
  if (positives.size() > n_negative) positives.resize(n_negative);
  for (auto& p : positives) data.push_back(std::move(p));
  return data;
}

struct Scores {
  ml::MetricSummary svm;
  ml::MetricSummary logistic;
  ml::MetricSummary one_class;
};

void print_row(const char* name, const ml::MetricSummary& m) {
  std::printf("  %-22s %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n", name,
              m.accuracy * 100, m.fp_rate * 100, m.fn_rate * 100,
              m.f1 * 100);
}

}  // namespace

int main() {
  std::printf("ABLATION: classifier choice on the Table II protocol\n");
  std::printf("(6 subjects, 10 min training, substitution attack)\n\n");

  core::ExperimentConfig config;
  config.n_users = 6;
  config.train_duration_s = 10 * 60.0;
  const auto data = core::generate_experiment_data(config);
  attack::SubstitutionAttack attack;
  const std::size_t window = 1080;

  for (auto version : {core::DetectorVersion::kOriginal,
                       core::DetectorVersion::kReduced}) {
    std::vector<ml::ConfusionMatrix> svm_cm;
    std::vector<ml::ConfusionMatrix> lr_cm;
    std::vector<ml::ConfusionMatrix> oc_cm;

    for (std::size_t u = 0; u < data.cohort.size(); ++u) {
      std::vector<physio::Record> train_donors;
      std::vector<physio::Record> test_donors;
      for (std::size_t v = 0; v < data.cohort.size(); ++v) {
        if (v == u) continue;
        train_donors.push_back(data.training[v]);
        test_donors.push_back(data.testing[v]);
      }
      const ml::Dataset train =
          training_set(data.training[u], train_donors, version);
      ml::StandardScaler scaler;
      scaler.fit(train);
      const ml::Dataset scaled = scaler.transform(train);

      const auto svm = ml::DcdTrainer{}.train(scaled, ml::TrainConfig{});
      const auto lr = ml::train_logistic(scaled);
      const auto oc = ml::OneClassGaussian::fit(scaled);

      const auto attacked = attack::corrupt_windows(
          data.testing[u], test_donors, attack, 0.5, window, 77 + u);
      ml::ConfusionMatrix cm_svm;
      ml::ConfusionMatrix cm_lr;
      ml::ConfusionMatrix cm_oc;
      for (std::size_t w = 0; w * window + window <= attacked.record.ecg.size();
           ++w) {
        const auto portrait = core::make_window_portrait(
            attacked.record, w * window, window);
        const auto x = scaler.transform(core::extract_features(
            portrait, version, core::Arithmetic::kDouble));
        const int actual = attacked.window_altered[w] ? +1 : -1;
        cm_svm.add(svm.predict(x), actual);
        cm_lr.add(lr.predict(x), actual);
        cm_oc.add(oc.predict(x), actual);
      }
      svm_cm.push_back(cm_svm);
      lr_cm.push_back(cm_lr);
      oc_cm.push_back(cm_oc);
    }

    std::printf("%s features:\n", core::to_string(version));
    std::printf("  %-22s %9s %9s %9s %9s\n", "classifier", "Acc", "FP", "FN",
                "F1");
    print_row("linear SVM (paper)", ml::average_metrics(svm_cm));
    print_row("logistic regression", ml::average_metrics(lr_cm));
    print_row("one-class Gaussian", ml::average_metrics(oc_cm));
    std::printf("\n");
  }

  std::printf(
      "Reading: the linear SVM and logistic regression are near-equivalent\n"
      "(same surface, different loss) — consistent with the paper picking\n"
      "SVM among close alternatives. The SVM/LR operating point is alert-\n"
      "averse (0%% FP, higher FN); the one-class baseline trades a few false\n"
      "alarms for lower miss rates and needs no donor data at all — a\n"
      "finding worth carrying back to the paper's protocol, where alert\n"
      "fatigue (FP) is usually the costlier error in health monitoring.\n");
  return 0;
}
