// Linear support-vector machine: model + two from-scratch trainers.
//
// The paper trains a linear-kernel SVM offline per user ("We use Support
// Vector Machine ... with a linear kernel") and deploys only the prediction
// function on the Amulet. We provide:
//   * LinearSvmModel   — w·x + b, the deployable artefact
//   * SmoTrainer       — Platt's simplified SMO (reference trainer; slow,
//                        easy to audit against the KKT conditions)
//   * DcdTrainer       — LIBLINEAR-style dual coordinate descent (fast;
//                        what a production pipeline would run)
// Both solve the same L1-loss soft-margin dual, so their models agree to
// within tolerance (asserted by tests and the bench_svm ablation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace sift::ml {

/// Deployable linear decision function: sign(w·x + b).
struct LinearSvmModel {
  std::vector<double> w;
  double b = 0.0;

  /// Signed distance-like decision value w·x + b. Allocation-free.
  /// @throws std::invalid_argument on dimension mismatch.
  double decision_value(std::span<const double> x) const;

  /// +1 (altered) if decision_value >= 0, else -1 (unaltered).
  int predict(std::span<const double> x) const {
    return decision_value(x) >= 0.0 ? +1 : -1;
  }
};

struct TrainConfig {
  double c = 1.0;          ///< soft-margin penalty
  double tolerance = 1e-3; ///< KKT / projected-gradient tolerance
  std::size_t max_iterations = 2000;  ///< epochs (DCD) or passes (SMO)
  std::uint64_t seed = 42; ///< shuffling seed (deterministic training)
};

/// Trainer interface so the benchmark harness can sweep implementations.
class SvmTrainer {
 public:
  virtual ~SvmTrainer() = default;
  /// @throws std::invalid_argument on empty/ragged data or labels outside
  ///         {-1, +1}, or if only one class is present.
  virtual LinearSvmModel train(const Dataset& data,
                               const TrainConfig& cfg) const = 0;
};

/// Platt's simplified SMO for the linear kernel.
class SmoTrainer final : public SvmTrainer {
 public:
  LinearSvmModel train(const Dataset& data,
                       const TrainConfig& cfg) const override;
};

/// Dual coordinate descent (Hsieh et al., ICML'08) for L1-loss linear SVM.
class DcdTrainer final : public SvmTrainer {
 public:
  LinearSvmModel train(const Dataset& data,
                       const TrainConfig& cfg) const override;

  /// Row-major matrix variant for the columnar cohort trainer: x holds
  /// n_rows rows of d contiguous doubles, labels[i] in {-1, +1}. Shares
  /// the exact statement sequence with train via one templated core, so
  /// the returned model is bit-identical to train on the equivalent
  /// Dataset. Same exceptions as train, plus std::invalid_argument if
  /// x.size() != labels.size() * d.
  LinearSvmModel train_matrix(std::span<const double> x, std::size_t d,
                              std::span<const int> labels,
                              const TrainConfig& cfg) const;
};

}  // namespace sift::ml
