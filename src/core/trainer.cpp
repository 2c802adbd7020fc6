#include "core/trainer.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "attack/attack.hpp"
#include "attack/scenario.hpp"
#include "core/windows.hpp"

namespace sift::core {
namespace {

std::size_t to_samples(double seconds, double rate_hz) {
  return static_cast<std::size_t>(seconds * rate_hz + 0.5);
}

}  // namespace

UserModel train_user_model(const physio::Record& wearer,
                           std::span<const physio::Record> donors,
                           const SiftConfig& config) {
  std::vector<const physio::Record*> refs;
  refs.reserve(donors.size());
  for (const physio::Record& donor : donors) refs.push_back(&donor);
  return train_user_model(wearer, refs, config);
}

UserModel train_user_model(const physio::Record& wearer,
                           std::span<const physio::Record* const> donors,
                           const SiftConfig& config) {
  if (donors.empty()) {
    throw std::invalid_argument("train_user_model: need at least one donor");
  }
  const double rate = wearer.ecg.sample_rate_hz();
  const std::size_t window = to_samples(config.window_s, rate);
  const std::size_t stride = to_samples(config.train_stride_s, rate);
  if (window == 0 || stride == 0 || wearer.ecg.size() < window) {
    throw std::invalid_argument("train_user_model: record shorter than window");
  }

  ml::Dataset data;

  // Negative class: the wearer's genuine signal pair.
  for (auto& x : extract_window_features(wearer, window, stride,
                                         config.version, config.arithmetic,
                                         config.grid_n)) {
    data.push_back({std::move(x), -1});
  }
  const std::size_t n_negative = data.size();

  // Positive class: donor ECG over the wearer's ABP, pooled across donors
  // — a substitution-attacked stream as the base station sees it, with the
  // donor's R peaks alongside the wearer's systolic peaks.
  ml::Dataset positives;
  for (const physio::Record* donor : donors) {
    for (auto& x : extract_window_features(*donor, wearer, window, stride,
                                           config.version, config.arithmetic,
                                           config.grid_n)) {
      positives.push_back({std::move(x), +1});
    }
  }
  if (positives.empty()) {
    throw std::invalid_argument("train_user_model: donors too short");
  }

  // Extension: positives from non-substitution attack manifestations,
  // applied to the wearer's own trace (half the windows, per attack).
  // Kept separate from the substitution pool so subsampling cannot drown
  // them out: they fill up to half the positive budget.
  ml::Dataset augmented;
  if (config.augment_attack_positives) {
    attack::NoiseInjectionAttack noise;
    attack::TimeShiftAttack shift;
    std::uint64_t salt = 0;
    for (attack::Attack* atk :
         std::initializer_list<attack::Attack*>{&noise, &shift}) {
      const auto attacked = attack::corrupt_windows(
          wearer, std::span<const physio::Record>{}, *atk, 0.5, window,
          config.seed + ++salt);
      for (std::size_t w = 0; w < attacked.window_altered.size(); ++w) {
        if (!attacked.window_altered[w]) continue;
        augmented.push_back(
            {window_features(attacked.record, w * window, window,
                             config.version, config.arithmetic, config.grid_n),
             +1});
      }
    }
  }

  // Balance classes: positives match the negative count overall.
  std::mt19937_64 rng(config.seed);
  std::shuffle(augmented.begin(), augmented.end(), rng);
  if (augmented.size() > n_negative / 2) augmented.resize(n_negative / 2);
  std::shuffle(positives.begin(), positives.end(), rng);
  if (positives.size() + augmented.size() > n_negative) {
    positives.resize(n_negative - augmented.size());
  }
  for (auto& p : positives) data.push_back(std::move(p));
  for (auto& p : augmented) data.push_back(std::move(p));

  UserModel model;
  model.user_id = wearer.user_id;
  model.config = config;
  model.scaler.fit(data);
  const ml::Dataset scaled = model.scaler.transform(data);
  model.svm = ml::DcdTrainer{}.train(scaled, config.svm);
  return model;
}

}  // namespace sift::core
