// Crash-recovery suite: kill the fleet at arbitrary points and prove the
// restart is indistinguishable from never having crashed.
//
// The property under test is exactly-once end to end: a 64-session cohort
// runs under a seeded payload-fault schedule while the durability layer
// journals every verdict and takes periodic checkpoints. At ~20 different
// kill points the process "dies" — unflushed journal records are abandoned
// and the un-fsync'd tail is torn off, exactly what a power cut leaves
// behind — then a fresh engine recovers and resumes from the checkpoint
// cursors. Every per-user outcome (stats, health counters, decision values,
// reject tallies) and every per-user journal stream must match an
// uninterrupted control run bit for bit: no verdict lost, none duplicated.
//
// Scope note (mirrors DESIGN.md): the schedule uses payload-only faults
// (NaN / exponent corruption / truncation), which are pure functions of
// (seed, user, seq, kind) and therefore replay-deterministic. Seq-skew
// faults are excluded — exactly-once accounting keys on the wire sequence
// number — and worker-throw / provider budgets are process-local state a
// crash legitimately resets.
//
// The base seed can be overridden via SIFT_CHAOS_SEED, so CI runs this
// suite in the same seed matrix as the chaos tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alloc_guard.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/engine.hpp"
#include "fleet/faults.hpp"
#include "fleet/replay.hpp"

namespace sift::fleet {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("SIFT_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

/// Self-cleaning durability directory under the system temp root.
struct ScopedDir {
  std::string path;
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("sift_recovery_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

class RecoveryTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSessions = 64;

  static void SetUpTestSuite() {
    ReplayConfig config;
    config.sessions = kSessions;
    config.seconds = 9.0;  // 3 windows per session, ~36 packets each
    config.distinct_users = 2;
    config.train_seconds = 60.0;
    fixture_ = new ReplayFixture(ReplayFixture::build(config));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  static FleetConfig engine_config() {
    FleetConfig config;
    config.workers = 4;
    config.shards = 8;
    config.queue_capacity = 256;
    config.backpressure = BackpressurePolicy::kBlock;
    return config;
  }

  /// Payload-only fault schedule: deterministic per (seed, user, seq, kind),
  /// so the recovery replay re-injects the exact same corruption.
  static FaultConfig fault_config() {
    FaultConfig fc;
    fc.seed = base_seed();
    fc.payload_users = {0, 1, 2, 3, 32, 33};
    fc.nan_probability = 0.15;
    fc.corrupt_probability = 0.10;
    fc.truncate_probability = 0.10;
    return fc;
  }

  struct SessionOutcome {
    wiot::BaseStation::Stats stats;
    Session::Health health;
    std::vector<double> decisions;
    std::vector<bool> unscored;
    bool scored = false;
    core::DetectorVersion tier = core::DetectorVersion::kOriginal;
  };

  static std::map<int, SessionOutcome> collect(const FleetEngine& engine) {
    std::map<int, SessionOutcome> out;
    engine.sessions().for_each([&](int user, const Session& session) {
      SessionOutcome o;
      o.stats = session.stats();
      o.health = session.health();
      o.scored = session.scored();
      o.tier = session.tier();
      for (const auto& report : session.station().reports()) {
        o.decisions.push_back(report.decision_value);
        o.unscored.push_back(report.unscored);
      }
      out.emplace(user, std::move(o));
    });
    return out;
  }

  static std::map<int, std::uint64_t> collect_rejects(
      const FleetEngine& engine) {
    std::map<int, std::uint64_t> out;
    for (int user = 0; user < static_cast<int>(kSessions); ++user) {
      out[user] = engine.rejects_for(user);
    }
    return out;
  }

  /// Merged per-core journal segments → per-user verdict streams. Within
  /// one run a user's records live in a single segment in append order; a
  /// crash boundary may re-pin the user to a different core, so seq order
  /// (strictly increasing per user, enforced by the dedupe maps) is the
  /// canonical stream either way.
  static std::map<int, std::vector<durable::VerdictRecord>> journal_by_user(
      const std::string& dir) {
    std::map<int, std::vector<durable::VerdictRecord>> out;
    for (const auto& rec : durable::Durability::scan_merged(dir)) {
      out[rec.user_id].push_back(rec);
    }
    for (auto& [user, recs] : out) {
      std::stable_sort(
          recs.begin(), recs.end(),
          [](const durable::VerdictRecord& a, const durable::VerdictRecord& b) {
            return a.seq < b.seq;
          });
    }
    return out;
  }

  /// Time-major single-producer feed of steps [from, to), mirroring
  /// replay_through(producers=1), with a checkpoint every
  /// @p checkpoint_every steps.
  static void feed_steps(FleetEngine& engine, FaultInjector& injector,
                         durable::Durability* durability, std::size_t from,
                         std::size_t to, std::size_t checkpoint_every) {
    for (std::size_t step = from; step < to; ++step) {
      for (std::size_t s = 0; s < fixture_->sessions(); ++s) {
        const auto& stream = fixture_->session_packets(s);
        if (step >= stream.size()) continue;
        wiot::Packet packet = stream[step];
        injector.corrupt_packet(static_cast<int>(s), packet);
        engine.ingest(static_cast<int>(s), std::move(packet));
      }
      if (durability && checkpoint_every != 0 &&
          (step + 1) % checkpoint_every == 0) {
        durability->checkpoint(engine);  // mid-ingest, workers still running
      }
    }
  }

  struct RunArtifacts {
    std::map<int, SessionOutcome> outcomes;
    std::map<int, std::uint64_t> rejects;
    std::map<int, std::vector<durable::VerdictRecord>> journal;
  };

  /// The uninterrupted reference: full replay with durability attached.
  static RunArtifacts control_run(const std::string& dir) {
    FaultInjector injector(fault_config());
    durable::Durability durability(dir);
    FleetConfig config = engine_config();
    config.injector = &injector;
    config.durability = &durability;
    FleetEngine engine(fixture_->provider(), config);
    replay_through(engine, *fixture_, /*producers=*/1, &injector);
    durability.flush();
    RunArtifacts out;
    out.outcomes = collect(engine);
    out.rejects = collect_rejects(engine);
    out.journal = journal_by_user(dir);
    return out;
  }

  static void expect_matches_control(const RunArtifacts& got,
                                     const RunArtifacts& want,
                                     const std::string& label) {
    ASSERT_EQ(got.outcomes.size(), want.outcomes.size()) << label;
    for (const auto& [user, w] : want.outcomes) {
      ASSERT_TRUE(got.outcomes.count(user)) << label << " user " << user;
      const SessionOutcome& g = got.outcomes.at(user);
      EXPECT_EQ(g.scored, w.scored) << label << " user " << user;
      EXPECT_EQ(g.tier, w.tier) << label << " user " << user;
      EXPECT_EQ(g.stats.packets_received, w.stats.packets_received)
          << label << " user " << user;
      EXPECT_EQ(g.stats.duplicates_ignored, w.stats.duplicates_ignored)
          << label << " user " << user;
      EXPECT_EQ(g.stats.malformed_rejected, w.stats.malformed_rejected)
          << label << " user " << user;
      EXPECT_EQ(g.stats.seq_rejected, w.stats.seq_rejected)
          << label << " user " << user;
      EXPECT_EQ(g.stats.gaps_filled, w.stats.gaps_filled)
          << label << " user " << user;
      EXPECT_EQ(g.stats.overflow_dropped, w.stats.overflow_dropped)
          << label << " user " << user;
      EXPECT_EQ(g.stats.windows_classified, w.stats.windows_classified)
          << label << " user " << user;
      EXPECT_EQ(g.stats.alerts, w.stats.alerts) << label << " user " << user;
      EXPECT_EQ(g.stats.unscored_windows, w.stats.unscored_windows)
          << label << " user " << user;
      EXPECT_EQ(g.health.faults_total, w.health.faults_total)
          << label << " user " << user;
      EXPECT_EQ(g.health.quarantine_dropped, w.health.quarantine_dropped)
          << label << " user " << user;
      EXPECT_EQ(g.health.quarantine_entries, w.health.quarantine_entries)
          << label << " user " << user;
      ASSERT_EQ(g.decisions.size(), w.decisions.size())
          << label << " user " << user;
      for (std::size_t i = 0; i < g.decisions.size(); ++i) {
        EXPECT_EQ(g.decisions[i], w.decisions[i])
            << label << " user " << user << " window " << i
            << ": recovery must be bit-identical";
        EXPECT_EQ(g.unscored[i], w.unscored[i])
            << label << " user " << user << " window " << i;
      }
    }
    EXPECT_EQ(got.rejects, want.rejects)
        << label << ": reject tallies must be exactly-once across the crash";

    // The journal itself: every user's verdict stream survives the crash
    // with no frame lost, duplicated, or reordered.
    ASSERT_EQ(got.journal.size(), want.journal.size()) << label;
    for (const auto& [user, w] : want.journal) {
      ASSERT_TRUE(got.journal.count(user)) << label << " user " << user;
      const auto& g = got.journal.at(user);
      ASSERT_EQ(g.size(), w.size()) << label << " journal user " << user;
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(g[i - 1].seq, g[i].seq)
              << label << " journal user " << user
              << ": duplicate or reordered frame";
        }
        EXPECT_EQ(g[i].seq, w[i].seq) << label << " journal user " << user;
        EXPECT_EQ(g[i].decision_value, w[i].decision_value)
            << label << " journal user " << user << " frame " << i;
        EXPECT_EQ(g[i].tier, w[i].tier) << label << " user " << user;
        EXPECT_EQ(g[i].flags, w[i].flags) << label << " user " << user;
        EXPECT_EQ(g[i].faults_total, w[i].faults_total)
            << label << " user " << user;
        EXPECT_EQ(g[i].quarantine_dropped, w[i].quarantine_dropped)
            << label << " user " << user;
      }
    }
  }

  static ReplayFixture* fixture_;
};

ReplayFixture* RecoveryTest::fixture_ = nullptr;

// The headline property: ~20 kill points spanning the whole stream, each
// with a randomly torn journal tail, all recover to the exact control run.
TEST_F(RecoveryTest, KillAtAnyPointRecoversExactlyOnce) {
  ScopedDir control_dir("control");
  const RunArtifacts want = control_run(control_dir.path);
  const std::size_t steps = fixture_->session_packets(0).size();
  ASSERT_GE(steps, 20u);

  constexpr int kKillPoints = 20;
  for (int k = 0; k < kKillPoints; ++k) {
    SCOPED_TRACE("kill point " + std::to_string(k));
    const std::size_t kill_step = 1 + (k * (steps - 1)) / (kKillPoints - 1);
    ScopedDir dir("kill" + std::to_string(k));
    std::mt19937_64 rng(base_seed() * 7919 + static_cast<std::uint64_t>(k));

    // --- the doomed process: explicit barriers only, so everything since
    // the last checkpoint/flush is provably lost by the kill.
    {
      FaultInjector injector(fault_config());
      durable::DurabilityConfig dc;
      dc.journal.flush_interval = std::chrono::hours{24};
      durable::Durability durability(dir.path, dc);
      FleetConfig config = engine_config();
      config.injector = &injector;
      config.durability = &durability;
      FleetEngine engine(fixture_->provider(), config);
      feed_steps(engine, injector, &durability, 0, kill_step,
                 /*checkpoint_every=*/5);
      engine.drain();
      if (k % 2 == 1) {
        // Odd kill points: a durable-but-uncheckpointed journal tail, so
        // the torn cuts below land past the checkpoint barriers.
        durability.flush();
      }
      // Every per-core segment dies independently: each loses a random
      // slice of its own durable-but-unbarriered tail, modelling a power
      // cut that catches N in-flight write streams at different offsets.
      for (std::size_t seg = 0; seg < durability.segment_count(); ++seg) {
        const std::uint64_t barrier = durability.journal_barrier_bytes(seg);
        const std::uint64_t durable = durability.journal(seg).durable_bytes();
        ASSERT_GE(durable, barrier);
        const std::size_t cut =
            static_cast<std::size_t>(rng() % (durable - barrier + 1));
        const std::size_t junk = (k % 3 == 0) ? rng() % 12 : 0;
        durability.journal(seg).simulate_crash(cut, junk);
      }
    }

    // --- the restarted process: recover, resume past the cursors, finish.
    FaultInjector injector(fault_config());
    durable::Durability durability(dir.path);
    FleetConfig config = engine_config();
    config.injector = &injector;
    config.durability = &durability;
    FleetEngine engine(fixture_->provider(), config);
    const durable::RecoveryResult recovered = durability.recover_into(engine);
    if (kill_step >= 5) {
      // A checkpoint was taken, so a generation must load. (How many
      // sessions it holds races with worker startup — the exact-match
      // below is the property that matters, not the snapshot's timing.)
      EXPECT_TRUE(recovered.checkpoint_loaded);
    }
    replay_through(engine, *fixture_, /*producers=*/1, &injector,
                   recovered.cursors);
    durability.flush();

    RunArtifacts got;
    got.outcomes = collect(engine);
    got.rejects = collect_rejects(engine);
    got.journal = journal_by_user(dir.path);
    expect_matches_control(got, want, "kill " + std::to_string(k));
  }
}

// The resume feed is the ordinary multi-producer replay: killed after a
// checkpoint, the restart re-feeds the suffix from 4 producer threads, and
// since each session stays on one producer the per-user outcome and journal
// still match the single-producer control bit for bit. Only the packets at
// or above the recovered cursors are offered.
TEST_F(RecoveryTest, MultiProducerResumeMatchesControl) {
  ScopedDir control_dir("control_multi");
  const RunArtifacts want = control_run(control_dir.path);
  const std::size_t steps = fixture_->session_packets(0).size();

  ScopedDir dir("multi");
  {
    FaultInjector injector(fault_config());
    durable::DurabilityConfig dc;
    dc.journal.flush_interval = std::chrono::hours{24};
    durable::Durability durability(dir.path, dc);
    FleetConfig config = engine_config();
    config.injector = &injector;
    config.durability = &durability;
    FleetEngine engine(fixture_->provider(), config);
    feed_steps(engine, injector, &durability, 0, steps / 2,
               /*checkpoint_every=*/5);
    engine.drain();
    // The kill loses every segment's whole un-barriered tail.
    for (std::size_t seg = 0; seg < durability.segment_count(); ++seg) {
      const std::uint64_t barrier = durability.journal_barrier_bytes(seg);
      const std::uint64_t durable = durability.journal(seg).durable_bytes();
      ASSERT_GE(durable, barrier);
      durability.journal(seg).simulate_crash(
          static_cast<std::size_t>(durable - barrier), 0);
    }
  }

  FaultInjector injector(fault_config());
  durable::Durability durability(dir.path);
  FleetConfig config = engine_config();
  config.injector = &injector;
  config.durability = &durability;
  FleetEngine engine(fixture_->provider(), config);
  const durable::RecoveryResult recovered = durability.recover_into(engine);
  ASSERT_TRUE(recovered.checkpoint_loaded);
  ASSERT_GT(recovered.sessions_restored, 0u);

  std::uint64_t at_or_above = 0;
  for (std::size_t s = 0; s < fixture_->sessions(); ++s) {
    const auto it = recovered.cursors.find(static_cast<int>(s));
    for (const wiot::Packet& packet : fixture_->session_packets(s)) {
      const std::uint32_t cursor =
          it == recovered.cursors.end() ? 0
          : packet.kind == wiot::ChannelKind::kEcg ? it->second.ecg
                                                   : it->second.abp;
      if (packet.seq >= cursor) ++at_or_above;
    }
  }
  const ReplayResult resumed = replay_through(
      engine, *fixture_, /*producers=*/4, &injector, recovered.cursors);
  durability.flush();
  EXPECT_EQ(resumed.packets_offered, at_or_above);
  EXPECT_LT(resumed.packets_offered, fixture_->total_packets())
      << "the checkpoint covers a prefix, so some packets are skipped";

  RunArtifacts got;
  got.outcomes = collect(engine);
  got.rejects = collect_rejects(engine);
  got.journal = journal_by_user(dir.path);
  expect_matches_control(got, want, "4-producer resume");
}

// Cold start: verdicts were journaled but no checkpoint was ever taken.
// Recovery finds nothing to restore, the full stream is re-fed, and the
// journal dedupe map alone keeps every frame exactly-once.
TEST_F(RecoveryTest, JournalOnlyRecoveryIsExactlyOnce) {
  ScopedDir control_dir("control_cold");
  const RunArtifacts want = control_run(control_dir.path);
  const std::size_t steps = fixture_->session_packets(0).size();

  ScopedDir dir("cold");
  {
    FaultInjector injector(fault_config());
    durable::Durability durability(dir.path);
    FleetConfig config = engine_config();
    config.injector = &injector;
    config.durability = &durability;
    FleetEngine engine(fixture_->provider(), config);
    feed_steps(engine, injector, nullptr, 0, steps / 2, 0);  // no checkpoints
    engine.drain();
    durability.flush();
    // Garbage only on segment 0: the reopen must spot exactly one tear.
    durability.journal(0).simulate_crash(0, 5);  // clean tail, then garbage
  }

  FaultInjector injector(fault_config());
  durable::Durability durability(dir.path);
  EXPECT_EQ(durability.frames_discarded_torn(), 1u)
      << "the garbage tail was detected and truncated";
  FleetConfig config = engine_config();
  config.injector = &injector;
  config.durability = &durability;
  FleetEngine engine(fixture_->provider(), config);
  const durable::RecoveryResult recovered = durability.recover_into(engine);
  EXPECT_FALSE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.sessions_restored, 0u);
  EXPECT_GT(recovered.frames_replayed, 0u);
  replay_through(engine, *fixture_, /*producers=*/1, &injector,
                 recovered.cursors);
  durability.flush();

  RunArtifacts got;
  got.outcomes = collect(engine);
  got.rejects = collect_rejects(engine);
  got.journal = journal_by_user(dir.path);
  expect_matches_control(got, want, "cold start");

  const std::string json = engine.metrics_json();
  EXPECT_NE(json.find("fleet.checkpoints_written"), std::string::npos);
  EXPECT_NE(json.find("fleet.journal_bytes"), std::string::npos);
  EXPECT_NE(json.find("fleet.frames_replayed"), std::string::npos);
  EXPECT_NE(json.find("fleet.frames_discarded_torn"), std::string::npos);
}

// Exactly-once reject accounting keys on a per-channel seq high-water. A
// reject for an insane seq must not move it: that seq is untrustworthy by
// definition, and one such packet would otherwise hide every later reject
// on the channel from fleet.packets_rejected and rejects_for.
TEST_F(RecoveryTest, InsaneSeqRejectDoesNotHideLaterRejects) {
  ScopedDir dir("insane_seq");
  durable::Durability durability(dir.path);
  FleetConfig config = engine_config();
  config.durability = &durability;
  FleetEngine engine(fixture_->provider(), config);

  const auto& stream = fixture_->session_packets(0);
  const auto ecg =
      std::find_if(stream.begin(), stream.end(), [](const wiot::Packet& p) {
        return p.kind == wiot::ChannelKind::kEcg;
      });
  ASSERT_NE(ecg, stream.end());
  wiot::Packet packet = *ecg;
  packet.seq = engine.config().validation.max_seq + 5;
  EXPECT_FALSE(engine.ingest(0, packet));
  packet.seq = 3;
  packet.samples[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine.ingest(0, packet));
  engine.drain();

  EXPECT_EQ(engine.rejects_for(0), 2u);
  EXPECT_EQ(engine.metrics().counter("fleet.packets_rejected").value(), 2u);
}

// A corrupted current checkpoint falls back to the rotated previous
// generation — and because the journal dedupe covers the gap between the
// two, the run still recovers to the exact control outcome.
TEST_F(RecoveryTest, CorruptCheckpointFallsBackToPreviousGeneration) {
  ScopedDir control_dir("control_rot");
  const RunArtifacts want = control_run(control_dir.path);
  const std::size_t steps = fixture_->session_packets(0).size();

  ScopedDir dir("rotate");
  {
    FaultInjector injector(fault_config());
    durable::Durability durability(dir.path);
    FleetConfig config = engine_config();
    config.injector = &injector;
    config.durability = &durability;
    FleetEngine engine(fixture_->provider(), config);
    feed_steps(engine, injector, &durability, 0, steps,
               /*checkpoint_every=*/5);  // ≥2 checkpoints → prev exists
    engine.drain();
    durability.checkpoint(engine);
    durability.flush();
    ASSERT_GE(durability.checkpoints_written(), 2u);
  }
  ASSERT_TRUE(std::filesystem::exists(dir.path + "/checkpoint.prev"));

  // Flip one byte mid-file: the CRC framing must reject the generation.
  {
    std::fstream f(dir.path + "/checkpoint.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(size, 16);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  FaultInjector injector(fault_config());
  durable::Durability durability(dir.path);
  FleetConfig config = engine_config();
  config.injector = &injector;
  config.durability = &durability;
  FleetEngine engine(fixture_->provider(), config);
  const durable::RecoveryResult recovered = durability.recover_into(engine);
  EXPECT_TRUE(recovered.checkpoint_loaded)
      << "checkpoint.prev must still be usable";
  EXPECT_EQ(recovered.checkpoints_refused, 1u) << "the flipped checkpoint.bin";
  EXPECT_GT(recovered.sessions_restored, 0u);
  replay_through(engine, *fixture_, /*producers=*/1, &injector,
                 recovered.cursors);
  durability.flush();

  RunArtifacts got;
  got.outcomes = collect(engine);
  got.rejects = collect_rejects(engine);
  got.journal = journal_by_user(dir.path);
  expect_matches_control(got, want, "rotation fallback");
}

// A checkpoint taken under another station geometry is refused, never
// sheared into differently shaped stations, and the refusal is counted.
// The report history is part of that geometry: checkpoints of a `siftctl
// serve` that kept every report do not load into one that keeps 16.
TEST_F(RecoveryTest, CheckpointOfAnotherGeometryIsRefusedAndCounted) {
  ScopedDir dir("geometry");
  {
    FaultInjector injector(fault_config());
    durable::Durability durability(dir.path);
    FleetConfig config = engine_config();
    config.durability = &durability;
    FleetEngine engine(fixture_->provider(), config);
    feed_steps(engine, injector, &durability, 0,
               fixture_->session_packets(0).size(), /*checkpoint_every=*/5);
    engine.drain();
    durability.checkpoint(engine);
    durability.flush();
  }
  ASSERT_TRUE(std::filesystem::exists(dir.path + "/checkpoint.prev"));

  durable::Durability durability(dir.path);
  FleetConfig config = engine_config();
  config.station.max_report_history = config.station.max_buffered_windows;
  config.durability = &durability;
  FleetEngine engine(fixture_->provider(), config);
  const durable::RecoveryResult recovered = durability.recover_into(engine);
  EXPECT_FALSE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.sessions_restored, 0u);
  EXPECT_EQ(recovered.checkpoints_refused, 2u)
      << "checkpoint.bin and checkpoint.prev";
  EXPECT_GT(recovered.frames_replayed, 0u) << "the journal still dedupes";
}

// Journal unit property: a torn tail (partial write at the moment of death)
// is truncated back to the last intact frame on reopen; everything durable
// before the tear is preserved.
TEST_F(RecoveryTest, TornJournalTailIsTruncatedOnReopen) {
  ScopedDir dir("torn");
  const std::string path = durable::Durability::segment_file(dir.path, 0);
  constexpr std::size_t kFrame =
      durable::kVerdictRecordBytes + 8;  // payload + len/crc header
  {
    durable::Journal journal(path);
    durable::VerdictRecord rec;
    rec.user_id = 7;
    rec.decision_value = 1.25;
    for (std::uint64_t i = 0; i < 5; ++i) {
      rec.seq = i;
      journal.append(rec);
    }
    journal.flush();
    EXPECT_EQ(journal.durable_bytes(), 5 * kFrame);
    journal.simulate_crash(/*cut_tail_bytes=*/3, /*junk_bytes=*/7);
  }
  durable::Journal reopened(path);
  EXPECT_TRUE(reopened.recovered_torn());
  EXPECT_EQ(reopened.recovered_valid_bytes(), 4 * kFrame);
  const auto scan = durable::Journal::scan(path);
  EXPECT_FALSE(scan.torn) << "reopen already truncated the tear";
  ASSERT_EQ(scan.records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(scan.records[i].seq, i);
    EXPECT_EQ(scan.records[i].user_id, 7);
    EXPECT_EQ(scan.records[i].decision_value, 1.25);
  }
}

// Per-core WAL property, forced to multiple segments regardless of the
// host's core count: verdicts routed to per-worker segments land in
// separate files, a reopen discovers and replays them all, the union
// dedupe map drops a replayed seq even when the user is re-pinned to a
// different core, and the merged scan reconstructs every user's canonical
// seq-ordered stream independent of the segment layout.
TEST_F(RecoveryTest, PerCoreSegmentsMergeDeterministically) {
  ScopedDir dir("segments");
  constexpr std::size_t kSegments = 3;
  constexpr int kUsers = 6;
  constexpr std::uint64_t kWindows = 4;
  wiot::BaseStation::WindowReport report;
  Session::Health health;
  {
    durable::Durability durability(dir.path);
    durability.attach_segments(kSegments);
    ASSERT_EQ(durability.segment_count(), kSegments);
    for (std::uint64_t seq = 0; seq < kWindows; ++seq) {
      for (int user = 0; user < kUsers; ++user) {
        report.window_index = seq;
        report.decision_value = user * 10.0 + static_cast<double>(seq);
        // The engine's worker_of analogue: each user pinned to one core.
        durability.on_verdict(user, report, health,
                              static_cast<std::size_t>(user) % kSegments);
      }
    }
    durability.flush();
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
      EXPECT_GT(durability.journal(seg).durable_bytes(), 0u)
          << "segment " << seg << " must hold its own cores' verdicts";
      EXPECT_TRUE(std::filesystem::exists(
          durable::Durability::segment_file(dir.path, seg)));
    }
  }

  durable::Durability reopened(dir.path);
  EXPECT_EQ(reopened.segment_count(), kSegments)
      << "reopen discovers every per-core segment";
  EXPECT_EQ(reopened.frames_replayed(), kUsers * kWindows);

  // A replayed verdict below the high-water must dedupe even on a segment
  // that never saw this user (restart with a different core count re-pins
  // sessions): the seed map is the union of every segment's scan.
  report.window_index = kWindows - 1;
  report.decision_value = 0.0;
  reopened.on_verdict(0, report, health, /*segment=*/1);
  EXPECT_EQ(reopened.frames_deduplicated(), 1u);
  // ... and the next fresh seq appends normally to the new owner.
  report.window_index = kWindows;
  report.decision_value = 99.0;
  reopened.on_verdict(0, report, health, /*segment=*/1);
  reopened.flush();

  const auto merged = durable::Durability::scan_merged(dir.path);
  EXPECT_EQ(merged.size(), kUsers * kWindows + 1);
  std::map<int, std::vector<durable::VerdictRecord>> by_user;
  for (const auto& rec : merged) by_user[rec.user_id].push_back(rec);
  ASSERT_EQ(by_user.size(), static_cast<std::size_t>(kUsers));
  for (int user = 0; user < kUsers; ++user) {
    auto& recs = by_user[user];
    std::stable_sort(recs.begin(), recs.end(),
                     [](const durable::VerdictRecord& a,
                        const durable::VerdictRecord& b) {
                       return a.seq < b.seq;
                     });
    const std::size_t expect_n = user == 0 ? kWindows + 1 : kWindows;
    ASSERT_EQ(recs.size(), expect_n) << "user " << user;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].seq, i) << "user " << user;
      if (i < kWindows) {
        EXPECT_EQ(recs[i].decision_value,
                  user * 10.0 + static_cast<double>(i))
            << "user " << user << " frame " << i;
      }
    }
  }
  EXPECT_EQ(by_user[0].back().decision_value, 99.0)
      << "post-recovery verdicts extend the canonical stream";
}

// The hot-path contract: once the ring is warm, journaling a verdict is
// allocation-free on the appending thread (group commit happens elsewhere).
TEST_F(RecoveryTest, JournalAppendIsAllocationFree) {
  ScopedDir dir("alloc");
  durable::JournalConfig jc;
  jc.buffer_records = 4096;
  durable::Journal journal(durable::Durability::segment_file(dir.path, 0),
                           jc);
  durable::VerdictRecord rec;
  rec.user_id = 1;
  rec.seq = 0;
  journal.append(rec);
  journal.flush();  // warm: ring and scratch buffers are all preallocated

  sift::testing::AllocGuard guard;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    rec.seq = i;
    journal.append(rec);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state append must not touch the heap";
  journal.flush();
}

}  // namespace
}  // namespace sift::fleet
