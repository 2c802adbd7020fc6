#include "cohort/trainer.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "cohort/archive.hpp"
#include "cohort/dedup.hpp"
#include "cohort/extractor.hpp"
#include "parallel/parallel_for.hpp"

namespace sift::cohort {
namespace {

/// Everything one worker reuses across users. Capacity warms up on the
/// first user; steady-state training then stays allocation-light.
struct WorkerScratch {
  StreamingWindowExtractor extractor;
  WindowDedup dedup;
  core::TrainingSet set;
  // Archive chunk staging; the extractor copies what it is fed, so one
  // set serves both sides of a hybrid stream.
  std::vector<double> ecg;
  std::vector<double> abp;
  std::vector<std::size_t> r_peaks;
  std::vector<std::size_t> sys_peaks;
};

std::shared_ptr<const std::vector<std::uint8_t>> fetch(
    const ArchiveSource& source, int user_id) {
  auto bytes = source(user_id);
  if (!bytes) {
    throw std::runtime_error("CohortTrainer: no archive for user " +
                             std::to_string(user_id));
  }
  return bytes;
}

}  // namespace

CohortTrainer::CohortTrainer(ArchiveSource source, CohortConfig config)
    : source_(std::move(source)), config_(std::move(config)) {
  if (!source_) {
    throw std::invalid_argument("CohortTrainer: null archive source");
  }
  if (config_.workers == 0) {
    throw std::invalid_argument("CohortTrainer: workers must be positive");
  }
  if (config_.sift.augment_attack_positives) {
    throw std::invalid_argument(
        "CohortTrainer: augment_attack_positives is not supported by the "
        "columnar pipeline");
  }
}

CohortStats CohortTrainer::train(std::span<const int> user_ids,
                                 const ModelStore& store) {
  CohortStats stats = run(user_ids, &store);
  std::vector<int> sorted(user_ids.begin(), user_ids.end());
  std::sort(sorted.begin(), sorted.end());
  store.write_manifest(sorted);
  return stats;
}

CohortStats CohortTrainer::extract_only(std::span<const int> user_ids) {
  return run(user_ids, nullptr);
}

CohortStats CohortTrainer::run(std::span<const int> user_ids,
                               const ModelStore* store) {
  const std::size_t n_users = user_ids.size();

  // One user's full pipeline. Appends this user's stat row and counter
  // deltas to the worker-local stats.
  const auto train_one = [&](std::size_t index, WorkerScratch& s,
                             CohortStats& out) {
    const int uid = user_ids[index];
    const auto wearer_bytes = fetch(source_, uid);
    ArchiveReader wearer(*wearer_bytes);
    if (!wearer.valid()) {
      throw std::runtime_error("CohortTrainer: corrupt archive for user " +
                               std::to_string(uid));
    }
    const double rate = wearer.rate_hz();
    const std::size_t window = core::to_samples(config_.sift.window_s, rate);
    const std::size_t stride =
        core::to_samples(config_.sift.train_stride_s, rate);

    s.dedup.reset();
    s.set.reset(core::kTiers);
    core::FeatureRowExtractor rows(config_.sift.grid_n,
                                   config_.sift.arithmetic);

    std::uint64_t windows_walked = 0;
    const StreamingWindowExtractor::WindowFn consume =
        [&](std::span<const double> ecg, std::span<const double> abp,
            std::span<const std::size_t> r, std::span<const std::size_t> sp) {
          ++windows_walked;
          if (config_.dedup && !s.dedup.insert(ecg, abp, r, sp)) return;
          rows.set_window(ecg, abp, r, sp, rate);
          s.set.push(rows);
        };

    // Negative class: the wearer's own stream.
    s.extractor.reset({window, stride});
    while (wearer.next_chunk(s.ecg, s.abp, s.r_peaks, s.sys_peaks)) {
      s.extractor.feed_ecg(s.ecg, s.r_peaks);
      s.extractor.feed_abp(s.abp, s.sys_peaks);
      s.extractor.drain(consume);
    }
    s.set.negatives = s.set.rows();
    if (s.set.negatives == 0) {
      throw std::invalid_argument(
          "CohortTrainer: record shorter than window for user " +
          std::to_string(uid));
    }

    // Positive class: each donor's ECG zipped against the wearer's ABP,
    // donors in cyclic order after the wearer (all others when
    // donors_per_user == 0 — the golden 12-user protocol).
    const std::size_t donor_count =
        config_.donors_per_user == 0
            ? n_users - 1
            : std::min(config_.donors_per_user, n_users - 1);
    if (donor_count == 0) {
      throw std::invalid_argument(
          "CohortTrainer: need at least one donor (cohort of one?)");
    }
    // donors_per_user == 0 pools every other member in ascending position
    // order — the order core::train_user_model's golden protocol uses —
    // while a bounded donor count takes the members cyclically after the
    // wearer. Positive windows pool in donor order, so this ordering is
    // part of the bit-identity contract.
    for (std::size_t k = 1; k <= donor_count; ++k) {
      const std::size_t donor_pos = config_.donors_per_user == 0
                                        ? (k <= index ? k - 1 : k)
                                        : (index + k) % n_users;
      const int donor_id = user_ids[donor_pos];
      const auto donor_bytes = fetch(source_, donor_id);
      ArchiveReader donor(*donor_bytes);
      ArchiveReader wearer_abp(*wearer_bytes);
      if (!donor.valid() || !wearer_abp.valid() ||
          donor.rate_hz() != rate) {
        throw std::runtime_error("CohortTrainer: bad donor archive " +
                                 std::to_string(donor_id));
      }
      s.extractor.reset({window, stride});
      bool more_donor = true;
      bool more_wearer = true;
      while (more_donor || more_wearer) {
        if (more_donor) {
          more_donor = donor.next_chunk(s.ecg, s.abp, s.r_peaks, s.sys_peaks);
          if (more_donor) s.extractor.feed_ecg(s.ecg, s.r_peaks);
        }
        if (more_wearer) {
          more_wearer =
              wearer_abp.next_chunk(s.ecg, s.abp, s.r_peaks, s.sys_peaks);
          if (more_wearer) s.extractor.feed_abp(s.abp, s.sys_peaks);
        }
        s.extractor.drain(consume);
      }
    }
    s.set.positives = s.set.rows() - s.set.negatives;

    UserTrainStat stat;
    stat.user_id = uid;
    stat.negatives = static_cast<std::uint32_t>(s.set.negatives);
    stat.dedup_hits = static_cast<std::uint32_t>(s.dedup.hits());

    if (store == nullptr) {
      // Extraction-only pass: report the raw (unbalanced) positive count.
      stat.positives = static_cast<std::uint32_t>(s.set.positives);
    } else {
      if (s.set.positives == 0) {
        throw std::invalid_argument("CohortTrainer: donors too short for user " +
                                    std::to_string(uid));
      }
      for (const core::UserModel& model :
           core::fit_user_models(uid, config_.sift, s.set)) {
        store->save(model);
        ++out.models_written;
      }
      stat.positives =
          static_cast<std::uint32_t>(s.set.sel.size() - s.set.negatives);
    }

    ++out.users_trained;
    out.windows_extracted += windows_walked;
    out.dedup_hits += s.dedup.hits();
    out.hash_collisions += s.dedup.collisions();
    out.rows_stored += s.set.rows();
    out.per_user.push_back(stat);
  };

  // One WorkerScratch and one stats shard per pool worker, the scratch
  // built on the worker's own first user. Passing n_workers as the cap
  // keeps every worker index inside the slots.
  const std::size_t n_workers = parallel::width(n_users, config_.workers);
  std::vector<std::optional<WorkerScratch>> scratch(n_workers);
  std::vector<CohortStats> outs(n_workers);
  parallel::parallel_for(
      n_users,
      [&](std::size_t i, std::size_t w) {
        if (!scratch[w]) scratch[w].emplace();
        train_one(i, *scratch[w], outs[w]);
      },
      n_workers);

  // Deterministic merge: per-worker shards concatenate, then sort by user
  // id — the result is independent of which worker claimed which user.
  CohortStats total;
  for (const CohortStats& o : outs) {
    total.users_trained += o.users_trained;
    total.windows_extracted += o.windows_extracted;
    total.dedup_hits += o.dedup_hits;
    total.hash_collisions += o.hash_collisions;
    total.rows_stored += o.rows_stored;
    total.models_written += o.models_written;
    total.per_user.insert(total.per_user.end(), o.per_user.begin(),
                          o.per_user.end());
  }
  std::sort(total.per_user.begin(), total.per_user.end(),
            [](const UserTrainStat& a, const UserTrainStat& b) {
              return a.user_id < b.user_id;
            });
  return total;
}

CachingArchiveSource::CachingArchiveSource(Generator generate,
                                           std::size_t capacity)
    : generate_(std::move(generate)), capacity_(capacity) {
  if (!generate_ || capacity_ == 0) {
    throw std::invalid_argument(
        "CachingArchiveSource: need a generator and positive capacity");
  }
}

std::shared_ptr<const std::vector<std::uint8_t>> CachingArchiveSource::get(
    int user_id) {
  {
    std::lock_guard lock(mu_);
    if (const auto it = index_.find(user_id); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return it->second->second;
    }
    ++misses_;
  }
  // Generate outside the lock so other workers keep hitting the cache; a
  // racing miss on the same user does redundant work, nothing worse.
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      generate_(user_id));
  std::lock_guard lock(mu_);
  if (const auto it = index_.find(user_id); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(user_id, bytes);
  index_[user_id] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return bytes;
}

std::uint64_t CachingArchiveSource::hits() const {
  std::lock_guard lock(mu_);
  return hits_;
}

std::uint64_t CachingArchiveSource::misses() const {
  std::lock_guard lock(mu_);
  return misses_;
}

}  // namespace sift::cohort
