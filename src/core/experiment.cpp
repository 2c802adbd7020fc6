#include "core/experiment.hpp"

#include <stdexcept>
#include <vector>

#include "attack/scenario.hpp"
#include "parallel/parallel_for.hpp"

namespace sift::core {

ExperimentData generate_experiment_data(const ExperimentConfig& config) {
  if (config.n_users < 2) {
    throw std::invalid_argument(
        "generate_experiment_data: need >= 2 users (donors required)");
  }
  ExperimentData data;
  data.cohort = physio::synthetic_cohort(config.n_users, config.cohort_seed);
  data.training = physio::generate_cohort_records(
      data.cohort, config.train_duration_s, physio::kDefaultRateHz, /*salt=*/0);
  data.testing = physio::generate_cohort_records(
      data.cohort, config.test_duration_s, physio::kDefaultRateHz, /*salt=*/1);
  return data;
}

ExperimentResult run_detection_experiment(const ExperimentConfig& config,
                                          const ExperimentData& data,
                                          attack::Attack& attack) {
  const double rate = physio::kDefaultRateHz;
  const std::size_t window = to_samples(config.sift.window_s, rate);

  const std::size_t n_users = data.cohort.size();

  // Phase 1 (sequential): corrupt every subject's test trace. Attack
  // implementations are not required to be thread-safe, so all shared-
  // attack use happens here; determinism is per-user seeded regardless.
  std::vector<attack::AttackedRecord> attacked(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    std::vector<physio::Record> test_donors;
    for (std::size_t v = 0; v < n_users; ++v) {
      if (v != u) test_donors.push_back(data.testing[v]);
    }
    attacked[u] = attack::corrupt_windows(
        data.testing[u], test_donors, attack, config.altered_fraction, window,
        /*seed=*/config.cohort_seed * 131 + u);
  }

  // Phase 2 (parallel): per-subject training + classification, which is
  // where nearly all the time goes. Subjects are fully independent.
  std::vector<SubjectResult> subjects(n_users);
  parallel::parallel_for(n_users, [&](std::size_t u) {
    std::vector<const physio::Record*> train_donors;
    for (std::size_t v = 0; v < n_users; ++v) {
      if (v != u) train_donors.push_back(&data.training[v]);
    }
    const UserModel model =
        train_user_model(data.training[u], train_donors, config.sift);
    const Detector detector(model);
    const auto verdicts = detector.classify_record(attacked[u].record);

    SubjectResult& sr = subjects[u];
    sr.user_id = data.cohort[u].user_id;
    for (std::size_t w = 0; w < verdicts.size(); ++w) {
      sr.confusion.add(verdicts[w].altered ? +1 : -1,
                       attacked[u].window_altered[w] ? +1 : -1);
    }
  });

  ExperimentResult result;
  result.subjects = std::move(subjects);

  std::vector<ml::ConfusionMatrix> matrices;
  for (const auto& s : result.subjects) matrices.push_back(s.confusion);
  result.summary = ml::average_metrics(matrices);
  return result;
}

ExperimentResult run_detection_experiment(const ExperimentConfig& config,
                                          attack::Attack& attack) {
  const ExperimentData data = generate_experiment_data(config);
  return run_detection_experiment(config, data, attack);
}

ExperimentResult run_detection_experiment(const ExperimentConfig& config) {
  attack::SubstitutionAttack substitution;
  return run_detection_experiment(config, substitution);
}

}  // namespace sift::core
