// Cohort pipeline correctness: archive losslessness, streaming-extractor
// equivalence, dedup exactness, and the headline contract — models trained
// through the columnar/streaming path are BYTE-identical to
// core::train_user_model on the same corpus, at every SIMD level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cohort/archive.hpp"
#include "cohort/dedup.hpp"
#include "cohort/extractor.hpp"
#include "cohort/feature_store.hpp"
#include "cohort/model_store.hpp"
#include "cohort/trainer.hpp"
#include "core/trainer.hpp"
#include "core/windows.hpp"
#include "io/model_file.hpp"
#include "ml/svm.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"
#include "simd/simd.hpp"

namespace {

using namespace sift;

physio::Record test_record(int user, double seconds,
                           std::uint64_t cohort_seed = 2017,
                           std::size_t cohort_n = 12) {
  const auto cohort = physio::synthetic_cohort(cohort_n, cohort_seed);
  return physio::generate_record(cohort[static_cast<std::size_t>(user)],
                                 seconds);
}

std::string model_bytes(const core::UserModel& model) {
  std::ostringstream os;
  io::write_user_model(os, model);
  return os.str();
}

TEST(Archive, RoundTripIsLossless) {
  const physio::Record rec = test_record(0, 30.0);
  const auto bytes = cohort::encode_archive(rec, 1000);
  const physio::Record back = cohort::decode_archive(bytes);
  EXPECT_EQ(back.user_id, rec.user_id);
  ASSERT_EQ(back.ecg.size(), rec.ecg.size());
  EXPECT_EQ(back.ecg.data(), rec.ecg.data());  // vector ==: bitwise doubles
  EXPECT_EQ(back.abp.data(), rec.abp.data());
  EXPECT_EQ(back.r_peaks, rec.r_peaks);
  EXPECT_EQ(back.systolic_peaks, rec.systolic_peaks);
}

TEST(Archive, CompressesTypicalSignals) {
  const physio::Record rec = test_record(1, 30.0);
  const auto bytes = cohort::encode_archive(rec);
  const std::size_t raw = rec.ecg.size() * 2 * sizeof(double);
  EXPECT_LT(bytes.size(), raw) << "XOR coding should beat raw doubles";
}

TEST(Archive, TornTailTruncatesToChunkBoundary) {
  const physio::Record rec = test_record(2, 30.0);
  auto bytes = cohort::encode_archive(rec, 720);
  bytes.resize(bytes.size() - 37);  // tear the last frame mid-payload
  cohort::ArchiveReader reader(bytes);
  ASSERT_TRUE(reader.valid());
  std::vector<double> e;
  std::vector<double> a;
  std::vector<std::size_t> r;
  std::vector<std::size_t> s;
  std::size_t total = 0;
  std::size_t expect_base = 0;
  while (reader.next_chunk(e, a, r, s)) {
    ASSERT_EQ(e.size(), a.size());
    // Decoded prefix must match the original sample-for-sample.
    for (std::size_t i = 0; i < e.size(); ++i) {
      ASSERT_EQ(e[i], rec.ecg[expect_base + i]);
    }
    expect_base += e.size();
    total += e.size();
  }
  EXPECT_TRUE(reader.torn());
  EXPECT_LT(total, rec.ecg.size());
  EXPECT_EQ(total % 720, 0u) << "prefix ends on a chunk boundary";
}

TEST(Archive, RejectsGarbageHeader) {
  std::vector<std::uint8_t> garbage(64, 0xAB);
  cohort::ArchiveReader reader(garbage);
  EXPECT_FALSE(reader.valid());
  EXPECT_THROW(cohort::decode_archive(garbage), std::runtime_error);
}

TEST(ModelStoreManifest, RejectsCountsTheFileCannotHold) {
  const auto dir =
      std::filesystem::temp_directory_path() / "sift_manifest_bound";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const cohort::ModelStore store(dir.string());
  const auto write = [&](const std::string& text) {
    std::ofstream(dir / "manifest.txt") << text;
  };
  write("sift-model-manifest v1\nusers 3\n4\n5\n6\n");
  EXPECT_EQ(store.read_manifest(), (std::vector<int>{4, 5, 6}));
  // Corrupt headers must fail typed, before sizing any allocation by them.
  for (const char* count :
       {"4000000000", "18446744073709551615", "-1", "4"}) {
    write(std::string("sift-model-manifest v1\nusers ") + count +
          "\n4\n5\n6\n");
    try {
      (void)store.read_manifest();
      ADD_FAILURE() << "users " << count << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("manifest truncated"),
                std::string::npos)
          << count << ": " << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(StreamingExtractor, MatchesBatchWindowWalk) {
  const physio::Record rec = test_record(3, 30.0);
  const std::size_t window = 1080;
  const std::size_t stride = 540;

  // Reference: the in-memory window walk.
  const auto want = core::extract_window_features(
      rec, window, stride, core::DetectorVersion::kOriginal,
      core::Arithmetic::kDouble);

  // Streamed: archive chunks through the extractor, deliberately at a
  // chunk size that misaligns with both window and stride.
  const auto bytes = cohort::encode_archive(rec, 999);
  cohort::ArchiveReader reader(bytes);
  ASSERT_TRUE(reader.valid());
  cohort::StreamingWindowExtractor extractor;
  extractor.reset({window, stride});
  cohort::FeatureRowExtractor rows(core::kDefaultGridSize,
                                   core::Arithmetic::kDouble);
  std::vector<std::vector<double>> got;
  const auto consume = [&](std::span<const double> ecg,
                           std::span<const double> abp,
                           std::span<const std::size_t> r,
                           std::span<const std::size_t> s) {
    rows.set_window(ecg, abp, r, s, reader.rate_hz());
    const auto x = rows.features(core::DetectorVersion::kOriginal);
    got.emplace_back(x.begin(), x.end());
  };
  std::vector<double> e;
  std::vector<double> a;
  std::vector<std::size_t> r;
  std::vector<std::size_t> s;
  while (reader.next_chunk(e, a, r, s)) {
    extractor.feed_ecg(e, r);
    extractor.feed_abp(a, s);
    extractor.drain(consume);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "window " << i;  // vector ==: bitwise
  }
}

TEST(Dedup, ExactHitCountOnSeededCorpus) {
  physio::Record rec = test_record(4, 60.0);
  const std::size_t window = 1080;
  // stride == window: consecutive windows tile the record, so every
  // injected copy is exactly one extracted window.
  const std::size_t injected =
      physio::inject_duplicate_windows(rec, window, window, 0.4, 99);
  ASSERT_GT(injected, 0u);

  cohort::WindowDedup dedup;
  std::uint64_t windows = 0;
  for (std::size_t start = 0; start + window <= rec.ecg.size();
       start += window) {
    std::vector<std::size_t> r;
    std::vector<std::size_t> s;
    for (std::size_t p : rec.r_peaks) {
      if (p >= start && p < start + window) r.push_back(p - start);
    }
    for (std::size_t p : rec.systolic_peaks) {
      if (p >= start && p < start + window) s.push_back(p - start);
    }
    dedup.insert(rec.ecg.samples().subspan(start, window),
                 rec.abp.samples().subspan(start, window), r, s);
    ++windows;
  }
  EXPECT_EQ(dedup.hits(), injected);
  EXPECT_EQ(dedup.unique_windows() + dedup.hits(), windows);
  EXPECT_EQ(dedup.collisions(), 0u);
}

TEST(Dedup, MemcmpRejectsHashCollisions) {
  // Two windows engineered to collide in the quantised hash (values under
  // half the 2^-20 quantisation step apart) must still both survive: the
  // memcmp verification sees different bytes.
  std::vector<double> a(64, 0.5);
  std::vector<double> b(64, 0.5);
  b[10] += 1e-9;  // same quantised value, different bits
  const std::vector<std::size_t> peaks = {7, 31};

  cohort::WindowDedup dedup;
  EXPECT_TRUE(dedup.insert(a, a, peaks, peaks));
  EXPECT_TRUE(dedup.insert(b, a, peaks, peaks))
      << "a colliding-but-different window must not be dropped";
  EXPECT_EQ(dedup.hits(), 0u);
  EXPECT_EQ(dedup.collisions(), 1u);
  EXPECT_EQ(dedup.unique_windows(), 2u);

  // And a true bit-identical repeat is a hit.
  EXPECT_FALSE(dedup.insert(b, a, peaks, peaks));
  EXPECT_EQ(dedup.hits(), 1u);
}

TEST(DuplicateInjection, CopiesAreBitExactAndDisjoint) {
  physio::Record rec = test_record(5, 60.0);
  physio::Record original = rec;
  const std::size_t window = 1080;
  const std::size_t stride = 540;
  const std::size_t injected =
      physio::inject_duplicate_windows(rec, window, stride, 0.2, 7);
  ASSERT_GT(injected, 0u);
  ASSERT_EQ(rec.ecg.size(), original.ecg.size());

  // Every altered stride-aligned window equals window 0 exactly.
  std::size_t copies = 0;
  for (std::size_t start = window; start + window <= rec.ecg.size();
       start += stride) {
    bool is_copy = true;
    for (std::size_t i = 0; i < window && is_copy; ++i) {
      is_copy = rec.ecg[start + i] == rec.ecg[i] &&
                rec.abp[start + i] == rec.abp[i];
    }
    if (is_copy) ++copies;
  }
  EXPECT_GE(copies, injected);
  // Peaks stay sorted and unique.
  EXPECT_TRUE(std::is_sorted(rec.r_peaks.begin(), rec.r_peaks.end()));
  EXPECT_TRUE(std::is_sorted(rec.systolic_peaks.begin(),
                             rec.systolic_peaks.end()));
}

// The headline contract: the streaming/columnar/deduplicating pipeline
// reproduces core::train_user_model byte-for-byte on the 12-user golden
// protocol (duplicate-free corpus), for every tier, at every SIMD level
// the host supports.
TEST(CohortBitIdentity, MatchesAosTrainerAtEveryLevel) {
  constexpr std::size_t kUsers = 12;
  constexpr double kSeconds = 60.0;
  const auto cohort = physio::synthetic_cohort(kUsers, 2017);
  const auto records = physio::generate_cohort_records(cohort, kSeconds);

  // Reference models: the AoS trainer, per user, per tier, all donors.
  core::SiftConfig config;
  std::vector<std::string> want;
  for (std::size_t k = 0; k < kUsers; ++k) {
    std::vector<physio::Record> donors;
    for (std::size_t j = 0; j < kUsers; ++j) {
      if (j != k) donors.push_back(records[j]);
    }
    for (const auto version :
         {core::DetectorVersion::kOriginal, core::DetectorVersion::kSimplified,
          core::DetectorVersion::kReduced}) {
      config.version = version;
      want.push_back(
          model_bytes(core::train_user_model(records[k], donors, config)));
    }
  }

  // Cohort pipeline input: one archive per user, ids in record order.
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> archives;
  std::vector<int> ids;
  for (const auto& rec : records) {
    archives.push_back(std::make_shared<const std::vector<std::uint8_t>>(
        cohort::encode_archive(rec)));
    ids.push_back(rec.user_id);
  }
  const cohort::ArchiveSource source = [&](int user_id) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == user_id) return archives[i];
    }
    return std::shared_ptr<const std::vector<std::uint8_t>>{};
  };

  const auto before = sift::simd::active_level();
  for (const auto level : sift::simd::available_levels()) {
    ASSERT_TRUE(sift::simd::set_active_level(level));
    const auto dir = std::filesystem::temp_directory_path() /
                     ("sift_cohort_bitid_" +
                      std::string(sift::simd::to_string(level)));
    std::filesystem::remove_all(dir);

    cohort::CohortConfig cc;
    cc.sift = core::SiftConfig{};
    cc.donors_per_user = 0;  // all others: the golden protocol
    cc.workers = 2;
    cohort::CohortTrainer trainer(source, cc);
    cohort::ModelStore store(dir.string(), 4);
    const cohort::CohortStats stats = trainer.train(ids, store);

    EXPECT_EQ(stats.users_trained, kUsers);
    EXPECT_EQ(stats.models_written, kUsers * 3);
    // The synthetic corpus is duplicate-free; dedup must be a no-op or
    // the byte comparison below would be vacuous.
    EXPECT_EQ(stats.dedup_hits, 0u) << sift::simd::to_string(level);

    std::size_t w = 0;
    for (std::size_t k = 0; k < kUsers; ++k) {
      for (const auto version : {core::DetectorVersion::kOriginal,
                                 core::DetectorVersion::kSimplified,
                                 core::DetectorVersion::kReduced}) {
        const core::UserModel loaded = store.load(ids[k], version);
        EXPECT_EQ(model_bytes(loaded), want[w])
            << "user " << ids[k] << " tier " << core::to_string(version)
            << " level " << sift::simd::to_string(level);
        ++w;
      }
    }
    // The manifest round-trips the sorted id list.
    auto sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(store.read_manifest(), sorted);
    std::filesystem::remove_all(dir);
  }
  ASSERT_TRUE(sift::simd::set_active_level(before));
}

TEST(CohortTrainer, DedupDropsInjectedDuplicates) {
  // A corpus with injected duplicate windows: the trainer must count and
  // drop them, and still produce loadable models.
  constexpr std::size_t kUsers = 3;
  const auto cohort = physio::synthetic_cohort(kUsers, 5);
  auto records = physio::generate_cohort_records(cohort, 60.0);
  core::SiftConfig sc;
  const std::size_t window = 1080;
  std::size_t injected = 0;
  // Duplicates only in the wearer streams; stride==window keeps the
  // injected-copy count equal to the dedup-hit count per wearer stream.
  sc.train_stride_s = sc.window_s;
  for (auto& rec : records) {
    injected += physio::inject_duplicate_windows(rec, window, window, 0.3,
                                                 1000 + rec.user_id);
  }
  ASSERT_GT(injected, 0u);

  std::vector<int> ids;
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> archives;
  for (const auto& rec : records) {
    ids.push_back(rec.user_id);
    archives.push_back(std::make_shared<const std::vector<std::uint8_t>>(
        cohort::encode_archive(rec)));
  }
  const cohort::ArchiveSource source = [&](int user_id) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == user_id) return archives[i];
    }
    return std::shared_ptr<const std::vector<std::uint8_t>>{};
  };

  cohort::CohortConfig cc;
  cc.sift = sc;
  cc.donors_per_user = 1;
  cohort::CohortTrainer trainer(source, cc);
  const cohort::CohortStats stats = trainer.extract_only(ids);
  // Each wearer stream hits its own injected duplicates exactly once. The
  // hybrid streams reuse the wearer's ABP but pair it with donor ECG, so
  // they stay unique — but a duplicated donor-ECG window over a duplicated
  // wearer-ABP window can also collide, so hits are at least `injected`.
  EXPECT_GE(stats.dedup_hits, injected);
  EXPECT_EQ(stats.hash_collisions, 0u);
  EXPECT_EQ(stats.windows_extracted,
            stats.rows_stored + stats.dedup_hits);
}

TEST(CohortTrainer, ParallelMatchesSerial) {
  constexpr std::size_t kUsers = 6;
  const auto cohort = physio::synthetic_cohort(kUsers, 77);
  const auto records = physio::generate_cohort_records(cohort, 30.0);
  std::vector<int> ids;
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> archives;
  for (const auto& rec : records) {
    ids.push_back(rec.user_id);
    archives.push_back(std::make_shared<const std::vector<std::uint8_t>>(
        cohort::encode_archive(rec)));
  }
  const cohort::ArchiveSource source = [&](int user_id) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == user_id) return archives[i];
    }
    return std::shared_ptr<const std::vector<std::uint8_t>>{};
  };

  std::vector<std::string> serial_models;
  cohort::CohortStats serial_stats;
  for (const std::size_t workers : {1u, 4u}) {
    cohort::CohortConfig cc;
    cc.donors_per_user = 2;
    cc.workers = workers;
    cohort::CohortTrainer trainer(source, cc);
    const auto dir = std::filesystem::temp_directory_path() /
                     ("sift_cohort_par_" + std::to_string(workers));
    std::filesystem::remove_all(dir);
    cohort::ModelStore store(dir.string(), 2);
    const cohort::CohortStats stats = trainer.train(ids, store);
    std::vector<std::string> models;
    for (int id : ids) {
      for (const auto v : {core::DetectorVersion::kOriginal,
                           core::DetectorVersion::kSimplified,
                           core::DetectorVersion::kReduced}) {
        models.push_back(model_bytes(store.load(id, v)));
      }
    }
    if (workers == 1) {
      serial_models = std::move(models);
      serial_stats = stats;
    } else {
      EXPECT_EQ(models, serial_models)
          << "worker count must not change any model byte";
      EXPECT_EQ(stats.windows_extracted, serial_stats.windows_extracted);
      EXPECT_EQ(stats.per_user.size(), serial_stats.per_user.size());
      for (std::size_t i = 0; i < stats.per_user.size(); ++i) {
        EXPECT_EQ(stats.per_user[i].user_id,
                  serial_stats.per_user[i].user_id);
        EXPECT_EQ(stats.per_user[i].negatives,
                  serial_stats.per_user[i].negatives);
        EXPECT_EQ(stats.per_user[i].positives,
                  serial_stats.per_user[i].positives);
      }
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(CachingArchiveSource, LruEvictsAndRegenerates) {
  std::atomic<int> generations{0};
  cohort::CachingArchiveSource cache(
      [&](int user_id) {
        ++generations;
        return std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(user_id));
      },
      2);
  (void)cache.get(1);
  (void)cache.get(2);
  (void)cache.get(1);  // hit
  EXPECT_EQ(generations.load(), 2);
  EXPECT_EQ(cache.hits(), 1u);
  (void)cache.get(3);  // evicts 2
  (void)cache.get(2);  // regenerate
  EXPECT_EQ(generations.load(), 4);
  const auto bytes = cache.get(3);
  ASSERT_TRUE(bytes);
  EXPECT_EQ((*bytes)[0], 3u);
}

TEST(ColumnarMl, FitColumnsMatchesAosFit) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  const std::size_t d = 8;
  ml::Dataset data;
  cohort::FeatureStore store;
  store.reset(d);
  for (std::size_t i = 0; i < 37; ++i) {
    std::vector<double> x(d);
    for (auto& v : x) v = dist(rng);
    store.push_row(x);
    data.push_back({std::move(x), i % 2 == 0 ? +1 : -1});
  }
  std::vector<std::uint32_t> sel(store.rows());
  std::iota(sel.begin(), sel.end(), 0u);

  ml::StandardScaler aos;
  aos.fit(data);
  ml::StandardScaler columnar;
  columnar.fit_columns(store.column_pointers(), sel);
  EXPECT_EQ(columnar.mean(), aos.mean());
  EXPECT_EQ(columnar.scale(), aos.scale());

  // And the packed transform matches row-by-row transform bitwise.
  std::vector<double> packed(sel.size() * d);
  columnar.transform_columns_into(store.column_pointers(), sel, packed);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto want = aos.transform(data[i].x);
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_EQ(packed[i * d + j], want[j]) << i << "," << j;
    }
  }

  // train_matrix on the packed rows == train on the scaled dataset.
  const ml::Dataset scaled = aos.transform(data);
  std::vector<int> labels;
  for (const auto& p : data) labels.push_back(p.y);
  const auto aos_model = ml::DcdTrainer{}.train(scaled, {});
  const auto col_model = ml::DcdTrainer{}.train_matrix(packed, d, labels, {});
  EXPECT_EQ(col_model.w, aos_model.w);
  EXPECT_EQ(col_model.b, aos_model.b);
}

}  // namespace
