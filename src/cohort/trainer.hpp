// Cohort-scale offline training: archives in, a filled model store out.
//
// For every wearer the pipeline streams the user's own archive (negative
// class), then each donor's ECG zipped against the wearer's ABP (the
// substitution-attack positive class), deduplicates bit-identical windows,
// and pushes all three detector tiers per unique window into a
// core::TrainingSet. core::fit_user_models, the one fit core's trainer
// also runs, then balances the classes and fits scaler + SVM per tier.
// Users are independent, so a work-claiming pool of threads processes
// them with zero shared mutable state — each worker owns its
// extractor/dedup/training-set scratch and its own slice of the output,
// merged deterministically (sorted by user id) at the end.
//
// Bit-identity contract: on a duplicate-free corpus the models this
// pipeline writes are byte-identical (io::write_user_model output) to
// core::train_user_models on the decoded records. The balancing and the
// fit are shared code, so what remains to match is the window stream:
// archive chunks through StreamingWindowExtractor must yield the windows
// the in-memory walk yields, in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cohort/model_store.hpp"
#include "core/trainer.hpp"

namespace sift::cohort {

/// Hands the trainer one user's encoded archive. Must be thread-safe; the
/// shared_ptr keeps the bytes alive while a worker streams them.
using ArchiveSource =
    std::function<std::shared_ptr<const std::vector<std::uint8_t>>(int user_id)>;

struct CohortConfig {
  /// Pipeline parameters (window, stride, grid, SVM, seed). The version
  /// field is ignored — all three tiers are trained per user.
  /// augment_attack_positives is unsupported here and must stay false.
  core::SiftConfig sift;
  /// Donors per wearer: the K cohort members after the wearer in user-id
  /// order (cyclic). 0 = every other member in ascending order, which is
  /// the 12-user golden protocol.
  std::size_t donors_per_user = 2;
  /// Most users trained at once; the pool (parallel::parallel_for) never
  /// runs more threads than the usable cores either.
  std::size_t workers = 1;
  bool dedup = true;
};

struct UserTrainStat {
  int user_id = 0;
  std::uint32_t negatives = 0;   ///< unique negative rows trained on
  std::uint32_t positives = 0;   ///< positive rows kept after balancing
  std::uint32_t dedup_hits = 0;  ///< duplicate windows dropped
};

struct CohortStats {
  std::uint64_t users_trained = 0;
  std::uint64_t windows_extracted = 0;  ///< windows walked, duplicates included
  std::uint64_t dedup_hits = 0;
  std::uint64_t hash_collisions = 0;
  std::uint64_t rows_stored = 0;    ///< unique feature rows pushed per tier
  std::uint64_t models_written = 0;
  std::vector<UserTrainStat> per_user;  ///< sorted by user id
};

class CohortTrainer {
 public:
  /// @throws std::invalid_argument on a null source, zero workers, or
  ///         augment_attack_positives set.
  CohortTrainer(ArchiveSource source, CohortConfig config);

  /// Trains all three tiers for every user in @p user_ids and persists
  /// them into @p store (plus the warm-load manifest). Deterministic for a
  /// fixed input regardless of worker count.
  /// @throws whatever a worker threw (first error wins) after all workers
  ///         have stopped.
  CohortStats train(std::span<const int> user_ids, const ModelStore& store);

  /// Extraction-only pass (no scaler/SVM/store): walks the same streams
  /// and returns the same window/dedup counters. The benchmark uses this
  /// to price extraction separately from training.
  CohortStats extract_only(std::span<const int> user_ids);

 private:
  CohortStats run(std::span<const int> user_ids, const ModelStore* store);

  ArchiveSource source_;
  CohortConfig config_;
};

/// Thread-safe LRU cache in front of an archive generator, for cohorts
/// whose archives are synthesised (benchmarks, smoke tests) rather than
/// read from disk: the donor pattern of CohortTrainer re-reads each
/// archive donors_per_user+1 times, which a small cache absorbs.
class CachingArchiveSource {
 public:
  using Generator = std::function<std::vector<std::uint8_t>(int user_id)>;

  /// @throws std::invalid_argument on a null generator or zero capacity.
  CachingArchiveSource(Generator generate, std::size_t capacity);

  std::shared_ptr<const std::vector<std::uint8_t>> get(int user_id);

  /// Adapter for CohortTrainer; the returned callable references *this,
  /// which must outlive it.
  ArchiveSource as_source() {
    return [this](int user_id) { return get(user_id); };
  }

  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  using Entry = std::pair<int, std::shared_ptr<const std::vector<std::uint8_t>>>;

  Generator generate_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<int, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sift::cohort
