#include "core/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

#include "attack/attack.hpp"
#include "attack/scenario.hpp"

namespace sift::core {
namespace {

// Pushes every stride-spaced window of the stream pairing @p ecg_from's ECG
// with @p abp_from's ABP, for their common length.
void push_windows(FeatureRowExtractor& rows, const physio::Record& ecg_from,
                  const physio::Record& abp_from, std::size_t window,
                  std::size_t stride, TrainingSet& set) {
  const std::size_t len = std::min(ecg_from.ecg.size(), abp_from.abp.size());
  for (std::size_t start = 0; start + window <= len; start += stride) {
    rows.set_window(ecg_from, abp_from, start, window);
    set.push(rows);
  }
}

// Walks one wearer's training windows into @p set and fits its tiers.
std::vector<UserModel> train_tiers(
    const physio::Record& wearer, std::span<const physio::Record* const> donors,
    const SiftConfig& config, std::span<const DetectorVersion> tiers) {
  if (donors.empty()) {
    throw std::invalid_argument("train_user_model: need at least one donor");
  }
  const double rate = wearer.ecg.sample_rate_hz();
  const std::size_t window = to_samples(config.window_s, rate);
  const std::size_t stride = to_samples(config.train_stride_s, rate);
  if (window == 0 || stride == 0 || wearer.ecg.size() < window) {
    throw std::invalid_argument("train_user_model: record shorter than window");
  }

  TrainingSet set;
  set.reset(tiers);
  FeatureRowExtractor rows(config.grid_n, config.arithmetic);

  // Negative class: the wearer's genuine signal pair.
  push_windows(rows, wearer, wearer, window, stride, set);
  set.negatives = set.rows();

  // Positive class: donor ECG over the wearer's ABP, pooled across donors
  // — a substitution-attacked stream as the base station sees it, with the
  // donor's R peaks alongside the wearer's systolic peaks.
  for (const physio::Record* donor : donors) {
    push_windows(rows, *donor, wearer, window, stride, set);
  }
  set.positives = set.rows() - set.negatives;
  if (set.positives == 0) {
    throw std::invalid_argument("train_user_model: donors too short");
  }

  // Extension: positives from non-substitution attack manifestations,
  // applied to the wearer's own trace (half the windows, per attack).
  // A block of their own, so balancing cannot drown them out.
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
        rows.set_window(attacked.record, attacked.record, w * window, window);
        set.push(rows);
      }
    }
  }
  set.augmented = set.rows() - set.negatives - set.positives;

  return fit_user_models(wearer.user_id, config, set);
}

}  // namespace

void TrainingSet::reset(std::span<const DetectorVersion> train_tiers) {
  tiers.assign(train_tiers.begin(), train_tiers.end());
  stores.resize(tiers.size());
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    stores[t].reset(feature_count(tiers[t]));
  }
  negatives = positives = augmented = 0;
}

void TrainingSet::push(FeatureRowExtractor& rows) {
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    stores[t].push_row(rows.features(tiers[t]));
  }
}

std::vector<UserModel> fit_user_models(int user_id, const SiftConfig& config,
                                       TrainingSet& set) {
  const std::size_t n = set.negatives;
  if (n == 0 || set.positives + set.augmented == 0) {
    throw std::invalid_argument("fit_user_models: a class has no rows");
  }
  // Class balance, drawn once for every tier. Shuffling an index vector
  // consumes the same draws as shuffling the rows themselves, so the kept
  // rows and their order depend only on the block sizes and the seed.
  std::mt19937_64 rng(config.seed);
  const auto shuffled = [&rng](std::size_t count) {
    std::vector<std::uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
  };
  const auto augmented_order = shuffled(set.augmented);
  const auto positive_order = shuffled(set.positives);
  const std::size_t keep_augmented = std::min(set.augmented, n / 2);
  const std::size_t keep_positives =
      std::min(set.positives, n - keep_augmented);

  set.sel.resize(n);
  std::iota(set.sel.begin(), set.sel.end(), 0u);
  for (std::size_t i = 0; i < keep_positives; ++i) {
    set.sel.push_back(static_cast<std::uint32_t>(n + positive_order[i]));
  }
  for (std::size_t i = 0; i < keep_augmented; ++i) {
    set.sel.push_back(
        static_cast<std::uint32_t>(n + set.positives + augmented_order[i]));
  }
  set.labels.assign(n, -1);
  set.labels.resize(set.sel.size(), +1);

  // Per tier: columnar scaler fit, gather-standardise into a row-major
  // matrix, DCD on the matrix.
  std::vector<UserModel> models;
  std::vector<double> xmat;
  for (std::size_t t = 0; t < set.tiers.size(); ++t) {
    const auto columns = set.stores[t].column_pointers();
    UserModel& model = models.emplace_back();
    model.user_id = user_id;
    model.config = config;
    model.config.version = set.tiers[t];
    model.scaler.fit_columns(columns, set.sel);
    xmat.resize(set.sel.size() * columns.size());
    model.scaler.transform_columns_into(columns, set.sel, xmat);
    model.svm = ml::DcdTrainer{}.train_matrix(xmat, columns.size(),
                                              set.labels, config.svm);
  }
  return models;
}

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
  const DetectorVersion tier[] = {config.version};
  return std::move(train_tiers(wearer, donors, config, tier).front());
}

std::vector<UserModel> train_user_models(
    const physio::Record& wearer, std::span<const physio::Record* const> donors,
    const SiftConfig& config) {
  return train_tiers(wearer, donors, config, kTiers);
}

}  // namespace sift::core
