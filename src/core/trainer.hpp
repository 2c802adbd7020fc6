// Offline per-user model training (the paper's "Training step").
//
// "we collect Δ time-units of synchronously measured ECG and ABP signals
//  from the user ... The negative class feature[s] are obtained from
//  portraits obtained from Δ time-units of ECG and ABP signals from the
//  user. ... the positive class points are generated using portraits from
//  Δ time-units of the wearer's ABP and ECG belonging to several different
//  users" — i.e. positives pair the *wearer's* ABP with *donor* ECG, which
// is exactly what a substitution attack produces. Training is offline
// ("need not be done on [the] Amulet platform"); only the fitted scaler and
// SVM weights ship to the device (see ml::emit_c_prediction_function).
//
// One training path: a walk pushes each window's row per tier into a
// columnar TrainingSet, and fit_user_models balances the classes and fits
// scaler + SVM per tier. train_user_model(s) walk in-memory records and
// cohort::CohortTrainer walks archive streams, both into that one fit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/feature_store.hpp"
#include "core/features.hpp"
#include "core/windows.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"
#include "physio/dataset.hpp"

namespace sift::core {

/// Pipeline parameters; defaults mirror the paper (w = 3 s at 360 Hz,
/// n = 50 grid, Δ = 20 min training data).
struct SiftConfig {
  double window_s = 3.0;
  std::size_t grid_n = kDefaultGridSize;
  DetectorVersion version = DetectorVersion::kOriginal;
  Arithmetic arithmetic = Arithmetic::kDouble;
  /// Training stride; the paper slides the window (overlap) for density.
  /// Half-window stride doubles the training points at negligible cost.
  double train_stride_s = 1.5;
  ml::TrainConfig svm;
  std::uint64_t seed = 7;  ///< positive-class subsampling seed
  /// Extension (evaluated by bench/ablation_attacks): besides the paper's
  /// donor-substitution positives, also synthesise positives by applying
  /// noise-injection and time-shift attacks to the wearer's own training
  /// trace. Closes the detection gap on attacks whose positives the
  /// substitution-only training never sees.
  bool augment_attack_positives = false;
};

/// The deployable per-user artefact: scaler + linear SVM + the pipeline
/// parameters they were trained under.
struct UserModel {
  int user_id = 0;
  SiftConfig config;
  ml::StandardScaler scaler;
  ml::LinearSvmModel svm;
};

/// Trains one user-specific model.
///
/// @param wearer  Δ time-units of the wearer's genuine ECG+ABP
/// @param donors  other users' records (≥1), read in place; positive-class
///                portraits pair each donor's ECG with the wearer's ABP.
///                The positive set is subsampled to the negative set's size
///                so classes stay balanced regardless of cohort size.
/// @throws std::invalid_argument if donors is empty or records are shorter
///         than one window.
UserModel train_user_model(const physio::Record& wearer,
                           std::span<const physio::Record* const> donors,
                           const SiftConfig& config);

/// Same, over donor records held by value.
UserModel train_user_model(const physio::Record& wearer,
                           std::span<const physio::Record> donors,
                           const SiftConfig& config);

/// The three tiers' models from one walk over the windows, in tier_rank
/// order (kTiers); config.version is ignored. Model i is byte-identical
/// to train_user_model with config.version = kTiers[i].
/// @throws std::invalid_argument as train_user_model.
std::vector<UserModel> train_user_models(
    const physio::Record& wearer, std::span<const physio::Record* const> donors,
    const SiftConfig& config);

/// One user's training rows, one columnar store per tier being trained,
/// in three blocks: [negatives | substitution positives | augmented
/// positives]. A walk pushes rows and sets the block sizes, and
/// fit_user_models reads them. A trainer that keeps one set across users
/// reuses its capacity.
struct TrainingSet {
  /// Empties every store and block, and trains @p train_tiers from now on.
  void reset(std::span<const DetectorVersion> train_tiers);

  /// Appends @p rows' current window as one row in each tier's store.
  void push(FeatureRowExtractor& rows);

  /// Rows pushed so far, per tier.
  std::size_t rows() const noexcept { return stores.front().rows(); }

  std::vector<DetectorVersion> tiers;
  std::vector<FeatureStore> stores;  ///< index-aligned with tiers
  std::size_t negatives = 0;
  std::size_t positives = 0;  ///< substitution positives
  std::size_t augmented = 0;
  /// The balanced selection the last fit trained on: row indexes and
  /// their labels.
  std::vector<std::uint32_t> sel;
  std::vector<int> labels;
};

/// The one class-balancing rule and fit. A generator seeded with
/// config.seed shuffles the augmented block, which keeps at most half the
/// negative count, then the substitution block, which fills the rest of
/// the negative count. The selection [negatives | kept substitution | kept
/// augmented] is drawn once and serves every tier: per tier the scaler is
/// fitted over the selected rows, which are standardised into a row-major
/// matrix for the SVM. Returns one model per set.tiers entry, in that
/// order, each carrying @p config with its tier.
/// @throws std::invalid_argument when a class has no rows.
std::vector<UserModel> fit_user_models(int user_id, const SiftConfig& config,
                                       TrainingSet& set);

}  // namespace sift::core
