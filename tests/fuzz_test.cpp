// Robustness ("fuzz-lite") tests: randomly corrupted inputs must never
// crash, hang, or silently load — parsers either succeed or throw.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "alloc_guard.hpp"
#include "amulet/amulet_c_check.hpp"
#include "core/detector.hpp"
#include "core/trainer.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/durable/journal.hpp"
#include "fleet/engine.hpp"
#include "io/csv.hpp"
#include "io/framed.hpp"
#include "io/model_file.hpp"
#include "ml/serialize.hpp"
#include "physio/user_profile.hpp"
#include "wiot/base_station.hpp"
#include "wiot/validate.hpp"

namespace sift {
namespace {

// Applies `n_mutations` random byte edits (replace, delete, insert).
std::string mutate(std::string text, std::uint64_t seed,
                   std::size_t n_mutations) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> op(0, 2);
  std::uniform_int_distribution<int> byte(32, 126);
  for (std::size_t i = 0; i < n_mutations && !text.empty(); ++i) {
    std::uniform_int_distribution<std::size_t> pos_dist(0, text.size() - 1);
    const std::size_t pos = pos_dist(rng);
    switch (op(rng)) {
      case 0:
        text[pos] = static_cast<char>(byte(rng));
        break;
      case 1:
        text.erase(pos, 1);
        break;
      default:
        text.insert(pos, 1, static_cast<char>(byte(rng)));
        break;
    }
  }
  return text;
}

class FuzzCorpus : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    const auto cohort = physio::synthetic_cohort(2, 99);
    const auto records = physio::generate_cohort_records(cohort, 15.0);
    std::ostringstream csv;
    io::write_record_csv(csv, records[0]);
    csv_text_ = new std::string(csv.str());

    core::SiftConfig config;
    config.version = core::DetectorVersion::kReduced;
    const auto model = core::train_user_model(
        records[0], std::span(records).subspan(1), config);
    std::ostringstream mf;
    io::write_user_model(mf, model);
    model_text_ = new std::string(mf.str());
  }
  static void TearDownTestSuite() {
    delete csv_text_;
    delete model_text_;
    csv_text_ = nullptr;
    model_text_ = nullptr;
  }
  static std::string* csv_text_;
  static std::string* model_text_;
};

std::string* FuzzCorpus::csv_text_ = nullptr;
std::string* FuzzCorpus::model_text_ = nullptr;

TEST_P(FuzzCorpus, CsvParserNeverCrashesOnMutatedInput) {
  for (std::size_t mutations : {1u, 5u, 50u, 500u}) {
    const std::string bad =
        mutate(*csv_text_, GetParam() * 131 + mutations, mutations);
    std::istringstream is(bad);
    try {
      const physio::Record rec = io::read_record_csv(is);
      // If it parsed, the invariants must hold.
      EXPECT_EQ(rec.ecg.size(), rec.abp.size());
      for (std::size_t p : rec.r_peaks) EXPECT_LT(p, rec.ecg.size());
    } catch (const std::runtime_error&) {
      // rejecting is fine
    } catch (const std::invalid_argument&) {
      // Series constructor may reject a mutated sample rate
    }
  }
}

TEST_P(FuzzCorpus, ModelParserNeverCrashesOnMutatedInput) {
  for (std::size_t mutations : {1u, 5u, 50u, 500u}) {
    const std::string bad =
        mutate(*model_text_, GetParam() * 733 + mutations, mutations);
    std::istringstream is(bad);
    try {
      const core::UserModel model = io::read_user_model(is);
      // If it parsed, the artefact must be internally consistent.
      EXPECT_EQ(model.svm.w.size(),
                core::feature_count(model.config.version));
      EXPECT_EQ(model.scaler.mean().size(), model.svm.w.size());
    } catch (const std::exception&) {
      // any typed rejection is acceptable; crashes/UB are not
    }
  }
}

TEST_P(FuzzCorpus, MlSerializeParserNeverCrashes) {
  // Mutate just the ml-layer body too (different framing than the full
  // user-model file).
  const std::string body =
      model_text_->substr(model_text_->find("sift-model"));
  for (std::size_t mutations : {1u, 10u, 100u}) {
    const std::string bad = mutate(body, GetParam() * 577 + mutations,
                                   mutations);
    try {
      (void)ml::load_model_string(bad);
    } catch (const std::exception&) {
    }
  }
}

// Random packet generator: mostly valid, with every field a corruption
// target (non-finite samples, wild rates, truncation, insane sequence
// numbers, stray peak annotations).
wiot::Packet random_packet(std::mt19937_64& rng, std::size_t expected) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> kind(0, 1);
  std::uniform_int_distribution<int> corruption(0, 9);

  wiot::Packet p;
  p.kind = kind(rng) == 0 ? wiot::ChannelKind::kEcg : wiot::ChannelKind::kAbp;
  p.seq = static_cast<std::uint32_t>(rng() % 64);
  p.sample_rate_hz = 360.0;
  p.samples.resize(expected);
  for (auto& s : p.samples) s = unit(rng);

  switch (corruption(rng)) {
    case 0:
      p.samples[rng() % p.samples.size()] =
          std::numeric_limits<double>::quiet_NaN();
      break;
    case 1:
      p.samples[rng() % p.samples.size()] =
          std::numeric_limits<double>::infinity();
      break;
    case 2:
      p.samples.resize(1 + rng() % expected);  // truncated payload
      break;
    case 3:
      p.samples.resize(expected + 1 + rng() % 64);  // oversized payload
      break;
    case 4:
      p.seq |= 0x60000000u;  // wild sequence number
      break;
    case 5:
      p.sample_rate_hz = std::numeric_limits<double>::quiet_NaN();
      break;
    case 6:
      p.peaks.push_back(p.samples.size() + rng() % 16);  // stray annotation
      break;
    default:
      p.peaks.push_back(rng() % p.samples.size());  // valid annotation
      break;
  }
  return p;
}

TEST_P(FuzzCorpus, PacketValidatorGuardsTheIngestPath) {
  constexpr std::size_t kSamplesPerPacket = 180;
  wiot::ValidationLimits limits;
  limits.expected_samples = kSamplesPerPacket;

  // The station behind the validator, exactly as the fleet engine wires it:
  // whatever validate_packet accepts is fed straight into the pipeline.
  std::istringstream model_stream(*model_text_);
  const auto model = io::read_user_model(model_stream);
  wiot::BaseStation::Config config{1080, kSamplesPerPacket};
  config.max_report_history = 4;
  wiot::BaseStation station(core::Detector(model), config);

  std::mt19937_64 rng(GetParam() * 8191);
  std::size_t accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto packet = random_packet(rng, kSamplesPerPacket);
    const auto fault = validate_packet(packet, limits);
    if (fault != wiot::PacketFault::kNone) continue;
    // Accepted ⇒ nothing non-finite can reach extract_features.
    for (double s : packet.samples) ASSERT_TRUE(std::isfinite(s));
    ASSERT_EQ(packet.samples.size(), kSamplesPerPacket);
    station.receive(packet);
    ++accepted;
  }
  EXPECT_GT(accepted, 0u) << "generator must produce valid packets too";
  EXPECT_EQ(station.stats().packets_received, accepted)
      << "every accepted packet reached the station";
}

TEST(PacketValidator, AcceptPathIsAllocationFree) {
  wiot::Packet p;
  p.sample_rate_hz = 360.0;
  p.samples.assign(180, 0.25);
  p.peaks = {10, 90};
  wiot::ValidationLimits limits;
  limits.expected_samples = 180;

  ASSERT_EQ(validate_packet(p, limits), wiot::PacketFault::kNone);
  sift::testing::AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    const auto fault = validate_packet(p, limits);
    if (fault != wiot::PacketFault::kNone) std::abort();
  }
  EXPECT_EQ(guard.count(), 0u) << "validation allocates nothing";
}

TEST_P(FuzzCorpus, AmuletCCheckerHandlesArbitraryText) {
  // The checker must cope with random non-C garbage (it only reports).
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 4000);
  std::string garbage;
  const std::size_t n = len(rng);
  for (std::size_t i = 0; i < n; ++i) {
    garbage.push_back(static_cast<char>(byte(rng)));
  }
  EXPECT_NO_THROW(amulet::check_amulet_c(garbage));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCorpus,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Durability-layer fuzzing: the journal and checkpoint readers face the
// rawest input in the system — bytes straight off a disk that died mid-write.
// The contract is absolute: never crash, and never admit a frame whose CRC
// does not check out.

/// Self-cleaning scratch directory for durability fuzz runs.
struct FuzzDir {
  std::string path;
  explicit FuzzDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("sift_fuzz_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~FuzzDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

/// A journal of @p n records with recognisable contents, returned as bytes.
std::vector<std::uint8_t> build_journal_bytes(const std::string& dir,
                                              std::uint64_t n) {
  const std::string path = dir + "/seed_journal.bin";
  {
    fleet::durable::Journal journal(path);
    fleet::durable::VerdictRecord rec;
    for (std::uint64_t i = 0; i < n; ++i) {
      rec.user_id = static_cast<int>(i % 7);
      rec.seq = i;
      rec.decision_value = 0.5 + static_cast<double>(i);
      journal.append(rec);
    }
    journal.flush();
  }
  return io::read_file_bytes(path);
}

constexpr std::size_t kJournalFrame =
    fleet::durable::kVerdictRecordBytes + io::kFrameHeaderBytes;

// A single flipped bit anywhere in the file invalidates exactly the frame
// that contains it: the scan returns the intact prefix, bit for bit, and
// reports the remainder as torn — it never "repairs" or misparses.
TEST(DurabilityFuzz, JournalScanNeverAdmitsACorruptFrame) {
  FuzzDir dir("scan_flip");
  constexpr std::uint64_t kRecords = 64;
  const auto pristine = build_journal_bytes(dir.path, kRecords);
  ASSERT_EQ(pristine.size(), kRecords * kJournalFrame);
  const std::string victim = dir.path + "/victim.bin";

  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = pristine;
    const std::size_t pos = rng() % bytes.size();
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    write_bytes(victim, bytes);

    const auto scan = fleet::durable::Journal::scan(victim);
    const std::size_t intact = pos / kJournalFrame;
    EXPECT_TRUE(scan.torn) << "flip at " << pos;
    ASSERT_EQ(scan.records.size(), intact) << "flip at " << pos;
    EXPECT_EQ(scan.valid_bytes, intact * kJournalFrame);
    for (std::size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(scan.records[i].seq, i);
      EXPECT_EQ(scan.records[i].decision_value,
                0.5 + static_cast<double>(i));
    }
  }
}

// Every possible truncation point: the scan yields exactly the whole frames
// before the cut and flags a tear only when a partial frame remains.
TEST(DurabilityFuzz, JournalScanHandlesEveryTruncationPoint) {
  FuzzDir dir("scan_cut");
  constexpr std::uint64_t kRecords = 16;
  const auto pristine = build_journal_bytes(dir.path, kRecords);
  const std::string victim = dir.path + "/victim.bin";

  for (std::size_t keep = 0; keep <= pristine.size(); ++keep) {
    std::vector<std::uint8_t> bytes(pristine.begin(),
                                    pristine.begin() + keep);
    write_bytes(victim, bytes);
    const auto scan = fleet::durable::Journal::scan(victim);
    EXPECT_EQ(scan.records.size(), keep / kJournalFrame) << "cut " << keep;
    EXPECT_EQ(scan.torn, keep % kJournalFrame != 0) << "cut " << keep;
  }
}

// Random mutation soup (replace/insert/delete, plus duplicated and
// appended junk): scan and reopen must never crash, and whatever records
// survive must be a subsequence the CRC actually vouches for.
TEST(DurabilityFuzz, JournalSurvivesMutationSoup) {
  FuzzDir dir("scan_soup");
  const auto pristine = build_journal_bytes(dir.path, 32);
  const std::string victim = dir.path + "/victim.bin";

  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    auto bytes = pristine;
    const int ops = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < ops && !bytes.empty(); ++i) {
      const std::size_t pos = rng() % bytes.size();
      switch (rng() % 4) {
        case 0:
          bytes[pos] ^= static_cast<std::uint8_t>(1 + rng() % 255);
          break;
        case 1:
          bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
        case 2:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                       static_cast<std::uint8_t>(rng() % 256));
          break;
        default: {  // duplicate a whole frame somewhere in the middle
          const std::size_t frame = (pos / kJournalFrame) * kJournalFrame;
          if (frame + kJournalFrame <= bytes.size()) {
            std::vector<std::uint8_t> dup(
                bytes.begin() + static_cast<std::ptrdiff_t>(frame),
                bytes.begin() +
                    static_cast<std::ptrdiff_t>(frame + kJournalFrame));
            bytes.insert(bytes.end(), dup.begin(), dup.end());
          }
          break;
        }
      }
    }
    write_bytes(victim, bytes);
    const auto scan = fleet::durable::Journal::scan(victim);  // must not throw
    EXPECT_LE(scan.valid_bytes, bytes.size());
    // Reopening for append must also cope: it truncates to the valid
    // prefix and the file is clean afterwards.
    { fleet::durable::Journal reopened(victim); }
    const auto rescan = fleet::durable::Journal::scan(victim);
    EXPECT_EQ(rescan.records.size(), scan.records.size());
    EXPECT_FALSE(rescan.torn);
  }
}

// Duplicated frames are CRC-valid, so the scan reports them — it is the
// Durability dedupe map that must absorb them without crashing or letting
// the high-water run backwards.
TEST(DurabilityFuzz, DuplicateFramesAreToleratedByRecovery) {
  FuzzDir dir("dup");
  const std::string path =
      fleet::durable::Durability::segment_file(dir.path, 0);
  {
    fleet::durable::Journal journal(path);
    fleet::durable::VerdictRecord rec;
    rec.user_id = 3;
    for (std::uint64_t i = 0; i < 8; ++i) {
      rec.seq = i;
      journal.append(rec);
    }
    journal.flush();
  }
  auto bytes = io::read_file_bytes(path);
  // Re-append a stale copy of the first three frames.
  std::vector<std::uint8_t> dup(bytes.begin(),
                                bytes.begin() + 3 * kJournalFrame);
  bytes.insert(bytes.end(), dup.begin(), dup.end());
  write_bytes(path, bytes);

  const auto scan = fleet::durable::Journal::scan(path);
  ASSERT_EQ(scan.records.size(), 11u) << "dups are CRC-valid frames";
  fleet::durable::Durability durability(dir.path);
  fleet::durable::VerdictRecord probe;
  probe.user_id = 3;
  probe.seq = 7;  // at the pre-dup high-water: must be deduplicated
  wiot::BaseStation::WindowReport report;
  report.window_index = 7;
  fleet::Session::Health health;
  durability.on_verdict(3, report, health);
  EXPECT_EQ(durability.frames_deduplicated(), 1u)
      << "stale duplicate frames must not lower the high-water";
}

/// A tiny fleet run (null model provider — no training needed) that leaves
/// a real checkpoint + journal behind, returned as the checkpoint bytes.
std::vector<std::uint8_t> build_checkpoint_bytes(const std::string& dir) {
  fleet::FleetConfig config;
  config.workers = 2;
  config.shards = 4;
  config.station = wiot::BaseStation::Config{1080, 180};
  fleet::durable::Durability durability(dir);
  config.durability = &durability;
  fleet::FleetEngine engine(
      fleet::ModelProvider([](int) {
        return std::shared_ptr<const core::UserModel>{};
      }),
      config);
  for (int user = 0; user < 5; ++user) {
    for (std::uint32_t seq = 0; seq < 6; ++seq) {
      for (auto kind : {wiot::ChannelKind::kEcg, wiot::ChannelKind::kAbp}) {
        wiot::Packet p;
        p.kind = kind;
        p.seq = seq;
        p.sample_rate_hz = 360.0;
        p.samples.assign(180, kind == wiot::ChannelKind::kEcg ? 0.1 : 80.0);
        engine.ingest(user, std::move(p));
      }
    }
  }
  engine.drain();
  durability.checkpoint(engine);
  return io::read_file_bytes(dir + "/checkpoint.bin");
}

// Checkpoint fuzzing: a mutated checkpoint.bin (with no older generation to
// fall back to) must be rejected atomically — recovery reports a cold start
// and the engine holds zero sessions, never a partially restored mixture.
TEST(DurabilityFuzz, MutatedCheckpointNeverPartiallyRestores) {
  FuzzDir seed_dir("ckpt_seed");
  const auto pristine = build_checkpoint_bytes(seed_dir.path);
  ASSERT_GT(pristine.size(), io::kFrameHeaderBytes);

  std::mt19937_64 rng(1313);
  for (int trial = 0; trial < 48; ++trial) {
    FuzzDir dir("ckpt_" + std::to_string(trial));
    auto bytes = pristine;
    if (trial % 3 == 0) {
      bytes.resize(rng() % bytes.size());  // torn mid-write
    } else if (trial % 3 == 1) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1 + rng() % 255);  // bit rot
    } else {
      const int ops = 1 + static_cast<int>(rng() % 6);  // mutation soup
      for (int i = 0; i < ops && !bytes.empty(); ++i) {
        const std::size_t pos = rng() % bytes.size();
        if (rng() % 2 == 0) {
          bytes[pos] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        } else {
          bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
        }
      }
    }
    write_bytes(dir.path + "/checkpoint.bin", bytes);

    fleet::FleetConfig config;
    config.workers = 2;
    config.shards = 4;
    config.station = wiot::BaseStation::Config{1080, 180};
    fleet::durable::Durability durability(dir.path);
    config.durability = &durability;
    fleet::FleetEngine engine(
        fleet::ModelProvider([](int) {
          return std::shared_ptr<const core::UserModel>{};
        }),
        config);
    const auto recovered = durability.recover_into(engine);  // must not throw
    if (!recovered.checkpoint_loaded) {
      EXPECT_EQ(recovered.sessions_restored, 0u);
      EXPECT_EQ(engine.sessions().active_sessions(), 0u)
          << "a rejected checkpoint must leave the engine untouched";
    }
  }
}

// An unmodified checkpoint round-trips — the control for the fuzz above,
// proving the mutations (not the loader) cause the rejections.
TEST(DurabilityFuzz, PristineCheckpointRestores) {
  FuzzDir dir("ckpt_ok");
  const auto pristine = build_checkpoint_bytes(dir.path);
  ASSERT_FALSE(pristine.empty());

  fleet::FleetConfig config;
  config.workers = 2;
  config.shards = 4;
  config.station = wiot::BaseStation::Config{1080, 180};
  fleet::durable::Durability durability(dir.path);
  config.durability = &durability;
  fleet::FleetEngine engine(
      fleet::ModelProvider([](int) {
        return std::shared_ptr<const core::UserModel>{};
      }),
      config);
  const auto recovered = durability.recover_into(engine);
  EXPECT_TRUE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.sessions_restored, 5u);
  EXPECT_EQ(engine.sessions().active_sessions(), 5u);
}

// The model-file CRC (v2 header) turns silent weight corruption into a
// typed load failure: any corrupted payload byte must throw, never hand
// back a detector with altered coefficients.
TEST_P(FuzzCorpus, ModelFileCrcDetectsEveryByteFlip) {
  const std::size_t crc_line = model_text_->find("crc32 ");
  ASSERT_NE(crc_line, std::string::npos) << "model files are v2 now";
  const std::size_t payload = model_text_->find('\n', crc_line) + 1;
  ASSERT_GT(model_text_->size(), payload);

  std::mt19937_64 rng(GetParam() * 31337);
  for (int trial = 0; trial < 64; ++trial) {
    std::string bad = *model_text_;
    const std::size_t pos =
        payload + rng() % (bad.size() - payload);
    bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng() % 255));
    std::istringstream is(bad);
    EXPECT_THROW((void)io::read_user_model(is), std::runtime_error)
        << "flip at byte " << pos << " loaded silently";
  }
}

}  // namespace
}  // namespace sift
