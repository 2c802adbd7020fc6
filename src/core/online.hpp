// Online model adaptation (extension; evaluated by bench/ablation_drift).
//
// The paper's deployment is train-once-flash-once; under physiological
// drift (physio/drift.hpp) a static per-user model starts false-alarming
// on the genuine wearer. OnlineAdapter keeps the deployed linear model
// current with Pegasos-style SGD updates from occasional *trusted* genuine
// windows — e.g. periods the user confirms, or clinician-supervised
// recalibration moments. Untrusted windows are never used (self-training
// on the detector's own verdicts would let an attacker poison the model).
//
// Catastrophic-forgetting guard: each genuine update is interleaved with a
// replay update from a stored attack-exemplar reservoir, so the boundary
// follows the wearer without sliding across the positive class.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/detector.hpp"
#include "core/trainer.hpp"

namespace sift::core {

struct OnlineConfig {
  double learning_rate = 0.02;  ///< SGD step (in scaled feature space)
  double lambda = 1e-4;         ///< weight decay (margin regulariser)
  std::size_t replay_per_update = 1;  ///< positive replays per genuine update
};

class OnlineAdapter {
 public:
  /// @param model              the deployed artefact to adapt (copied)
  /// @param positive_reservoir raw (unscaled) feature vectors of attack
  ///                           exemplars for replay; typically a sample of
  ///                           the training positives. May be empty —
  ///                           adaptation then has no forgetting guard.
  OnlineAdapter(UserModel model,
                std::vector<std::vector<double>> positive_reservoir,
                OnlineConfig config = {});

  /// Assimilates one user-confirmed genuine window.
  void assimilate_genuine(const Portrait& portrait);

  /// Assimilates a raw feature point with a trusted label (+1/-1) —
  /// the primitive both assimilate_genuine and replay use. Allocation-free:
  /// the scaled point is staged in a fixed-capacity FeatureVector.
  /// @throws std::invalid_argument for labels outside {-1, +1} or on a
  ///         feature-dimension mismatch.
  void assimilate(std::span<const double> raw_features, int label);

  const UserModel& model() const noexcept { return model_; }
  /// A detector over the current (adapted) model.
  Detector detector() const { return Detector(model_); }
  std::size_t updates() const noexcept { return updates_; }

  /// Samples @p count positive-class exemplars for the replay reservoir,
  /// built exactly like the trainer's positives (donor ECG over the
  /// wearer's ABP, window-strided).
  static std::vector<std::vector<double>> make_positive_reservoir(
      const physio::Record& wearer,
      std::span<const physio::Record> donors, const SiftConfig& config,
      std::size_t count);

 private:
  void sgd_step(std::span<const double> scaled, int label);
  void scale_and_step(std::span<const double> raw, int label);

  UserModel model_;
  std::vector<std::vector<double>> reservoir_;
  OnlineConfig config_;
  std::size_t updates_ = 0;
  std::size_t replay_cursor_ = 0;
};

}  // namespace sift::core
