#include "core/online.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "core/windows.hpp"

namespace sift::core {

OnlineAdapter::OnlineAdapter(UserModel model,
                             std::vector<std::vector<double>> positive_reservoir,
                             OnlineConfig config)
    : model_(std::move(model)),
      reservoir_(std::move(positive_reservoir)),
      config_(config) {
  if (!model_.scaler.fitted()) {
    throw std::invalid_argument("OnlineAdapter: model not fitted");
  }
  for (const auto& x : reservoir_) {
    if (x.size() != model_.svm.w.size()) {
      throw std::invalid_argument(
          "OnlineAdapter: reservoir dimension mismatch");
    }
  }
}

void OnlineAdapter::sgd_step(std::span<const double> scaled, int label) {
  // Pegasos-style hinge SGD: decay, then step if the margin is violated.
  const double y = label;
  auto& w = model_.svm.w;
  const double margin = y * model_.svm.decision_value(scaled);
  const double eta = config_.learning_rate;
  for (double& wj : w) wj *= 1.0 - eta * config_.lambda;
  if (margin < 1.0) {
    for (std::size_t j = 0; j < w.size(); ++j) {
      w[j] += eta * y * scaled[j];
    }
    model_.svm.b += eta * y;
  }
  ++updates_;
}

void OnlineAdapter::scale_and_step(std::span<const double> raw, int label) {
  FeatureVector scaled;
  scaled.resize(raw.size());
  model_.scaler.transform_into(raw, scaled.span());
  sgd_step(scaled.span(), label);
}

void OnlineAdapter::assimilate(std::span<const double> raw_features,
                               int label) {
  if (label != +1 && label != -1) {
    throw std::invalid_argument("OnlineAdapter: label must be +1/-1");
  }
  if (raw_features.size() != model_.scaler.mean().size()) {
    throw std::invalid_argument("OnlineAdapter: feature dimension mismatch");
  }
  scale_and_step(raw_features, label);
  // Replay attack exemplars so the boundary cannot slide across the
  // positive class while chasing the wearer's drift.
  if (label == -1 && !reservoir_.empty()) {
    for (std::size_t r = 0; r < config_.replay_per_update; ++r) {
      const auto& exemplar = reservoir_[replay_cursor_ % reservoir_.size()];
      ++replay_cursor_;
      scale_and_step(exemplar, +1);
    }
  }
}

void OnlineAdapter::assimilate_genuine(const Portrait& portrait) {
  const CountMatrix matrix(portrait, model_.config.grid_n);
  FeatureVector features;
  extract_features_into(portrait, matrix, model_.config.version,
                        model_.config.arithmetic, features);
  assimilate(features.span(), -1);
}

std::vector<std::vector<double>> OnlineAdapter::make_positive_reservoir(
    const physio::Record& wearer, std::span<const physio::Record> donors,
    const SiftConfig& config, std::size_t count) {
  const double rate = wearer.ecg.sample_rate_hz();
  const std::size_t window = to_samples(config.window_s, rate);
  std::vector<std::vector<double>> out;
  for (const physio::Record& donor : donors) {
    for (auto& x : extract_window_features(donor, wearer, window, window,
                                           config.version, config.arithmetic,
                                           config.grid_n)) {
      out.push_back(std::move(x));
    }
  }
  std::mt19937_64 rng(config.seed);
  std::shuffle(out.begin(), out.end(), rng);
  if (out.size() > count) out.resize(count);
  return out;
}

}  // namespace sift::core
