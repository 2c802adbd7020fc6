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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/features.hpp"
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

}  // namespace sift::core
