#include "core/attack_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>

#include "attack/scenario.hpp"
#include "ml/roc.hpp"
#include "parallel/parallel_for.hpp"

namespace sift::core {
namespace {

/// Effective ROC score of one verdict. The deployed detector alerts when
/// the margin crosses zero OR the peak data-check trips; a tripped check is
/// an unconditional alert, so for threshold sweeps it must dominate every
/// finite margin (without it, flatline detection would read as chance).
double roc_score(const DetectionResult& v) {
  return v.peak_check_failed ? std::max(v.decision_value, 1e9)
                             : v.decision_value;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

AttackMatrixResult run_attack_matrix(const AttackMatrixConfig& config) {
  const ExperimentConfig& exp = config.experiment;
  const double rate = physio::kDefaultRateHz;
  const std::size_t window = to_samples(exp.sift.window_s, rate);

  const ExperimentData data = generate_experiment_data(exp);
  const std::size_t n_users = data.cohort.size();
  const std::size_t n_windows = data.testing[0].ecg.size() / window;

  // Phase 1: every tier's model per user from one walk over its training
  // windows, reused across every attack — training dominates the wall
  // clock, so the matrix costs one training walk per user regardless of
  // corpus size. models[u][tier_rank(tier)].
  std::vector<std::vector<UserModel>> models(n_users);
  parallel::parallel_for(n_users, [&](std::size_t u) {
    std::vector<const physio::Record*> donors;
    for (std::size_t v = 0; v < n_users; ++v) {
      if (v != u) donors.push_back(&data.training[v]);
    }
    models[u] = train_user_models(data.training[u], donors, exp.sift);
  });

  AttackMatrixResult result;
  result.config = config;
  result.windows_per_subject = n_windows;

  const auto attacks = attack::make_all_attacks();
  for (const auto& attack_ptr : attacks) {
    attack::Attack& atk = *attack_ptr;

    // Phase 2 (sequential per the corrupt_windows contract — attacks are
    // not required to be thread-safe): the paper's scattered-window
    // scenario plus a contiguous-onset variant for the latency probe.
    std::vector<attack::AttackedRecord> scattered(n_users);
    std::vector<physio::Record> contiguous(n_users);
    const std::size_t onset = n_windows / 2;
    for (std::size_t u = 0; u < n_users; ++u) {
      std::vector<physio::Record> donors;
      for (std::size_t v = 0; v < n_users; ++v) {
        if (v != u) donors.push_back(data.testing[v]);
      }
      scattered[u] = attack::corrupt_windows(
          data.testing[u], donors, atk, exp.altered_fraction, window,
          /*seed=*/exp.cohort_seed * 131 + u);
      // Latency probe: clean until the midpoint, attacked to the end in one
      // alter() call so ramp attacks sweep their full gradual trajectory.
      contiguous[u] = data.testing[u];
      std::mt19937_64 rng(exp.cohort_seed * 977 + u);
      atk.alter(contiguous[u].ecg, contiguous[u].r_peaks, onset * window,
                (n_windows - onset) * window, donors[u % donors.size()], rng);
    }

    // Phase 3 (parallel): classify both scenarios under every tier.
    struct PerUser {
      ml::ConfusionMatrix confusion;
      double auc = 0.0;
      double tpr_at_budget = 0.0;
      double latency = 0.0;
    };
    std::vector<std::vector<PerUser>> evals(std::size(kTiers));
    for (auto& e : evals) e.resize(n_users);
    parallel::parallel_for(n_users, [&](std::size_t u) {
      for (std::size_t t = 0; t < std::size(kTiers); ++t) {
        const Detector detector(models[u][t]);
        PerUser& out = evals[t][u];

        const auto verdicts = detector.classify_record(scattered[u].record);
        std::vector<ml::ScoredLabel> scored;
        scored.reserve(verdicts.size());
        for (std::size_t w = 0; w < verdicts.size(); ++w) {
          const int truth = scattered[u].window_altered[w] ? +1 : -1;
          out.confusion.add(verdicts[w].altered ? +1 : -1, truth);
          scored.push_back({roc_score(verdicts[w]), truth});
        }
        out.auc = ml::roc_auc(scored);
        out.tpr_at_budget =
            ml::best_under_fpr_budget(scored, config.fpr_budget).tpr;

        const auto probe = detector.classify_record(contiguous[u]);
        out.latency = static_cast<double>(n_windows - onset);  // censored
        for (std::size_t w = onset; w < probe.size(); ++w) {
          if (probe[w].altered) {
            out.latency = static_cast<double>(w - onset);
            break;
          }
        }
      }
    });

    for (std::size_t t = 0; t < std::size(kTiers); ++t) {
      AttackCell cell;
      cell.attack = atk.name();
      cell.tier = kTiers[t];
      std::vector<ml::ConfusionMatrix> matrices;
      for (const PerUser& e : evals[t]) {
        matrices.push_back(e.confusion);
        cell.auc += e.auc;
        cell.tpr_at_budget += e.tpr_at_budget;
        cell.detection_latency_windows += e.latency;
      }
      cell.metrics = ml::average_metrics(matrices);
      const auto dn = static_cast<double>(n_users);
      cell.auc /= dn;
      cell.tpr_at_budget /= dn;
      cell.detection_latency_windows /= dn;
      result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

std::string attack_matrix_json(const AttackMatrixResult& result) {
  const ExperimentConfig& exp = result.config.experiment;
  std::ostringstream out;
  out << "{\n  \"config\": {\"users\": " << exp.n_users
      << ", \"seed\": " << exp.cohort_seed
      << ", \"train_s\": " << fmt(exp.train_duration_s)
      << ", \"test_s\": " << fmt(exp.test_duration_s)
      << ", \"altered_fraction\": " << fmt(exp.altered_fraction)
      << ", \"fpr_budget\": " << fmt(result.config.fpr_budget)
      << ", \"windows_per_subject\": " << result.windows_per_subject
      << "},\n  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const AttackCell& c = result.cells[i];
    out << "    {\"attack\": \"" << c.attack << "\", \"tier\": \""
        << to_string(c.tier) << "\", \"accuracy\": " << fmt(c.metrics.accuracy)
        << ", \"fp_rate\": " << fmt(c.metrics.fp_rate)
        << ", \"fn_rate\": " << fmt(c.metrics.fn_rate)
        << ", \"detection_rate\": " << fmt(1.0 - c.metrics.fn_rate)
        << ", \"f1\": " << fmt(c.metrics.f1) << ", \"auc\": " << fmt(c.auc)
        << ", \"tpr_at_budget\": " << fmt(c.tpr_at_budget)
        << ", \"latency_windows\": " << fmt(c.detection_latency_windows)
        << "}" << (i + 1 < result.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string attack_matrix_markdown(const AttackMatrixResult& result) {
  std::ostringstream out;
  for (const DetectorVersion tier : kTiers) {
    out << "### " << to_string(tier) << "\n\n"
        << "| Attack | Accuracy | FP rate | FN rate | F1 | ROC AUC | TPR@"
        << fmt(result.config.fpr_budget) << "FPR | Latency (windows) |\n"
        << "|---|---|---|---|---|---|---|---|\n";
    for (const AttackCell& c : result.cells) {
      if (c.tier != tier) continue;
      out << "| " << c.attack << " | " << fmt(c.metrics.accuracy) << " | "
          << fmt(c.metrics.fp_rate) << " | " << fmt(c.metrics.fn_rate)
          << " | " << fmt(c.metrics.f1) << " | " << fmt(c.auc) << " | "
          << fmt(c.tpr_at_budget) << " | "
          << fmt(c.detection_latency_windows) << " |\n";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace sift::core
