// Tests for the packet-level attack driver (wiot::apply_stream_attack) and
// the fleet's anti-replay hardening: backward replays beyond the window are
// dropped before reassembly, forward seq spoofs never advance the ingest
// cursors, suspicion quarantines a session under sustained attack and the
// probe machinery recovers it, and the whole path stays deterministic
// across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "fleet/engine.hpp"
#include "fleet/metrics.hpp"
#include "physio/dataset.hpp"
#include "wiot/packet.hpp"
#include "wiot/packet_attack.hpp"

namespace sift::fleet {
namespace {

// --- stream driver (no engine) ----------------------------------------------

std::vector<wiot::Packet> packetize(const physio::Record& rec,
                                    std::size_t samples_per_packet,
                                    std::uint32_t seq_base) {
  std::vector<wiot::Packet> out;
  const std::size_t n_packets = rec.ecg.size() / samples_per_packet;
  for (std::size_t i = 0; i < n_packets; ++i) {
    const std::size_t base = i * samples_per_packet;
    wiot::Packet ecg;
    ecg.kind = wiot::ChannelKind::kEcg;
    ecg.seq = seq_base + static_cast<std::uint32_t>(i);
    const auto es = rec.ecg.samples().subspan(base, samples_per_packet);
    ecg.samples.assign(es.begin(), es.end());
    for (std::size_t p : rec.r_peaks) {
      if (p >= base && p < base + samples_per_packet) {
        ecg.peaks.push_back(p - base);
      }
    }
    wiot::Packet abp;
    abp.kind = wiot::ChannelKind::kAbp;
    abp.seq = ecg.seq;
    const auto as = rec.abp.samples().subspan(base, samples_per_packet);
    abp.samples.assign(as.begin(), as.end());
    for (std::size_t p : rec.systolic_peaks) {
      if (p >= base && p < base + samples_per_packet) {
        abp.peaks.push_back(p - base);
      }
    }
    out.push_back(std::move(ecg));
    out.push_back(std::move(abp));
  }
  return out;
}

bool same_packet(const wiot::Packet& a, const wiot::Packet& b) {
  return a.kind == b.kind && a.seq == b.seq && a.samples == b.samples &&
         a.peaks == b.peaks;
}

bool same_stream(const std::vector<wiot::Packet>& a,
                 const std::vector<wiot::Packet>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_packet(a[i], b[i])) return false;
  }
  return true;
}

class StreamAttackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto cohort = physio::synthetic_cohort(1, 11);
    clean_ = new std::vector<wiot::Packet>(
        packetize(physio::generate_record(cohort[0], 30.0), 180, 0));
  }
  static void TearDownTestSuite() {
    delete clean_;
    clean_ = nullptr;
  }
  static std::vector<wiot::Packet>* clean_;
};

std::vector<wiot::Packet>* StreamAttackTest::clean_ = nullptr;

TEST_F(StreamAttackTest, OriginalsSurviveEveryKindInOrder) {
  for (const auto kind :
       {wiot::StreamAttackKind::kSeqSpoof,
        wiot::StreamAttackKind::kReplayPastCursor,
        wiot::StreamAttackKind::kStaleCursorResume,
        wiot::StreamAttackKind::kDuplicateFlood}) {
    wiot::StreamAttackConfig config;
    config.kind = kind;
    config.probability = 0.2;
    config.onset = kind == wiot::StreamAttackKind::kStaleCursorResume ? 40 : 0;
    wiot::StreamAttackStats stats;
    const auto attacked = wiot::apply_stream_attack(*clean_, config, &stats);
    EXPECT_EQ(stats.clean, clean_->size()) << to_string(kind);
    EXPECT_EQ(attacked.size(), stats.clean + stats.injected) << to_string(kind);
    // The adversary injects but never drops: the clean stream must appear
    // as an in-order subsequence of the attacked one.
    std::size_t next = 0;
    for (const auto& p : attacked) {
      if (next < clean_->size() && same_packet(p, (*clean_)[next])) ++next;
    }
    EXPECT_EQ(next, clean_->size()) << to_string(kind);
  }
}

TEST_F(StreamAttackTest, BitIdenticalUnderFixedSeed) {
  for (const auto kind :
       {wiot::StreamAttackKind::kSeqSpoof,
        wiot::StreamAttackKind::kReplayPastCursor,
        wiot::StreamAttackKind::kDuplicateFlood}) {
    wiot::StreamAttackConfig config;
    config.kind = kind;
    config.seed = 99;
    config.probability = 0.15;
    const auto a = wiot::apply_stream_attack(*clean_, config);
    const auto b = wiot::apply_stream_attack(*clean_, config);
    EXPECT_TRUE(same_stream(a, b)) << to_string(kind);
    config.seed = 100;
    const auto c = wiot::apply_stream_attack(*clean_, config);
    EXPECT_FALSE(same_stream(a, c))
        << to_string(kind) << ": seed must matter";
  }
}

TEST_F(StreamAttackTest, SeqSpoofForgesForwardJumps) {
  wiot::StreamAttackConfig config;
  config.kind = wiot::StreamAttackKind::kSeqSpoof;
  config.probability = 0.2;
  wiot::StreamAttackStats stats;
  const auto attacked = wiot::apply_stream_attack(*clean_, config, &stats);
  ASSERT_GT(stats.injected, 0u);
  std::size_t forged = 0;
  for (const auto& p : attacked) {
    if (p.seq >= config.spoof_jump) ++forged;
  }
  EXPECT_EQ(forged, stats.injected) << "every injection is a forward spoof";
}

TEST_F(StreamAttackTest, StaleCursorResumeReemitsThePrefix) {
  wiot::StreamAttackConfig config;
  config.kind = wiot::StreamAttackKind::kStaleCursorResume;
  config.onset = 40;
  wiot::StreamAttackStats stats;
  const auto attacked = wiot::apply_stream_attack(*clean_, config, &stats);
  EXPECT_EQ(stats.injected, config.onset) << "whole prefix re-sent";
  // The re-emission sits exactly at the onset: positions [onset, 2*onset)
  // repeat positions [0, onset).
  for (std::size_t j = 0; j < config.onset; ++j) {
    EXPECT_TRUE(same_packet(attacked[config.onset + j], (*clean_)[j]))
        << "replayed prefix packet " << j;
  }
}

// --- fleet-level defenses ----------------------------------------------------

class AntiReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto cohort = physio::synthetic_cohort(3, 7);
    const auto training = physio::generate_cohort_records(cohort, 60.0);
    core::SiftConfig sift;
    model_ = std::make_shared<const core::UserModel>(core::train_user_model(
        training[0], std::span(training).subspan(1), sift));
    const auto rec =
        physio::generate_record(cohort[0], 30.0, physio::kDefaultRateHz, 2);
    clean_ = new std::vector<wiot::Packet>(packetize(rec, 180, 0));
    // A clean continuation after the attacked span, long enough for the
    // probe machinery (probe_interval drops + the probe itself) to recover
    // a quarantined session.
    const auto n =
        static_cast<std::uint32_t>(rec.ecg.size() / 180);
    tail_ = new std::vector<wiot::Packet>(packetize(rec, 180, n));
  }
  static void TearDownTestSuite() {
    delete clean_;
    delete tail_;
    clean_ = nullptr;
    tail_ = nullptr;
    model_.reset();
  }

  static ModelProvider provider() {
    return [](int) { return model_; };
  }

  static FleetConfig base_config() {
    FleetConfig config;
    config.workers = 2;
    config.shards = 4;
    config.queue_capacity = 64;
    config.backpressure = BackpressurePolicy::kBlock;
    return config;
  }

  struct RunResult {
    std::uint64_t ingested = 0;
    std::uint64_t windows = 0;
    std::uint64_t alerts = 0;
    std::uint64_t seq_anomalies = 0;
    std::uint64_t replay_dropped = 0;
    std::uint64_t quarantine_dropped = 0;
    std::uint64_t suspect_sessions = 0;
    std::uint64_t quarantine_exits = 0;
    wiot::BaseStation::Stats station;
    Session::Health health;
  };

  static RunResult run(const FleetConfig& config,
                       const std::vector<wiot::Packet>& stream) {
    FleetEngine engine(provider(), config);
    for (const auto& p : stream) engine.ingest(0, p);
    engine.drain();
    RunResult r;
    auto& m = engine.metrics();
    r.ingested = m.counter("fleet.ingest_packets").value();
    r.windows = m.counter("fleet.windows_classified").value();
    r.alerts = m.counter("fleet.alerts").value();
    r.seq_anomalies = m.counter("fleet.seq_anomalies").value();
    r.replay_dropped = m.counter("fleet.replay_dropped").value();
    r.quarantine_dropped = m.counter("fleet.quarantine_dropped").value();
    r.suspect_sessions = m.counter("fleet.suspect_sessions").value();
    r.quarantine_exits = m.counter("fleet.quarantine_exits").value();
    engine.sessions().for_each([&](int, const Session& s) {
      r.station = s.stats();
      r.health = s.health();
    });
    return r;
  }

  /// Worker-side conservation: every packet the validation gate admitted is
  /// either delivered to the base station or dropped with an attributed
  /// counter — nothing is silently ingested.
  static void expect_conservation(const RunResult& r) {
    EXPECT_EQ(r.ingested, r.station.packets_received + r.quarantine_dropped +
                              r.replay_dropped);
  }

  /// The clean stream's packets with lo <= seq < hi, both channels.
  static std::vector<wiot::Packet> seq_in(std::uint32_t lo, std::uint32_t hi) {
    std::vector<wiot::Packet> out;
    for (const auto& p : *clean_) {
      if (p.seq >= lo && p.seq < hi) out.push_back(p);
    }
    return out;
  }

  /// Feeds user 0 and waits until the worker has delivered every packet, so
  /// a following cursors_for_resume reads exact cursors. False on timeout.
  static bool feed_and_settle(FleetEngine& engine,
                              const std::vector<wiot::Packet>& packets) {
    for (const auto& p : packets) engine.ingest(0, p);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (std::uint64_t received = 0; received < packets.size();) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
      engine.sessions().for_each([&](int, const Session& s) {
        received = s.stats().packets_received;
      });
    }
    return true;
  }

  /// Where the resume tests hand out cursors: past the replay window.
  static constexpr std::uint32_t kResumeAt = 20;

  static std::shared_ptr<const core::UserModel> model_;
  static std::vector<wiot::Packet>* clean_;
  static std::vector<wiot::Packet>* tail_;
};

std::shared_ptr<const core::UserModel> AntiReplayTest::model_;
std::vector<wiot::Packet>* AntiReplayTest::clean_ = nullptr;
std::vector<wiot::Packet>* AntiReplayTest::tail_ = nullptr;

TEST_F(AntiReplayTest, ReplayPastCursorIsDroppedNotIngested) {
  wiot::StreamAttackConfig attack;
  attack.kind = wiot::StreamAttackKind::kReplayPastCursor;
  attack.probability = 0.1;
  wiot::StreamAttackStats stats;
  const auto attacked = wiot::apply_stream_attack(*clean_, attack, &stats);
  ASSERT_GT(stats.injected, 0u);

  FleetConfig config = base_config();
  // Detection accounting only: keep suspicion from quarantining so the
  // verdict stream stays comparable to the clean run.
  config.anti_replay.suspicion_threshold =
      std::numeric_limits<std::uint64_t>::max();
  const RunResult hit = run(config, attacked);
  const RunResult baseline = run(config, *clean_);

  // replay_depth 64 stream slots ≈ 32 sequence numbers, far beyond the
  // 16-seq replay window: every injected copy must be flagged and dropped.
  EXPECT_EQ(hit.seq_anomalies, stats.injected);
  EXPECT_EQ(hit.replay_dropped, stats.injected);
  EXPECT_EQ(hit.health.seq_anomalies, stats.injected);
  EXPECT_EQ(hit.ingested, clean_->size() + stats.injected);
  expect_conservation(hit);
  // With the replays stripped pre-station, the verdict stream is exactly
  // the clean one's.
  EXPECT_EQ(hit.windows, baseline.windows);
  EXPECT_EQ(hit.alerts, baseline.alerts);

  // The window edge, once the clean stream has moved the ECG cursor to
  // `next`: next - 16 is a retransmit the station dedupe absorbs with no
  // anomaly; next - 17 is a replay, dropped before the station and counted.
  std::uint32_t next = 0;
  for (const auto& p : *clean_) {
    if (p.kind == wiot::ChannelKind::kEcg) next = std::max(next, p.seq + 1);
  }
  ASSERT_EQ(config.anti_replay.replay_window, 16u);
  ASSERT_GE(next, 17u);
  const auto ecg_at = [&](std::uint32_t seq) {
    return *std::find_if(clean_->begin(), clean_->end(), [&](const auto& p) {
      return p.kind == wiot::ChannelKind::kEcg && p.seq == seq;
    });
  };
  std::vector<wiot::Packet> edge = *clean_;
  edge.push_back(ecg_at(next - 16));
  edge.push_back(ecg_at(next - 17));
  const RunResult at_edge = run(config, edge);
  EXPECT_EQ(at_edge.replay_dropped, 1u) << "next - 17 is dropped";
  EXPECT_EQ(at_edge.seq_anomalies, 1u) << "next - 16 is not an anomaly";
  EXPECT_EQ(at_edge.station.duplicates_ignored,
            baseline.station.duplicates_ignored + 1)
      << "next - 16 reaches the station dedupe";
  expect_conservation(at_edge);
}

TEST_F(AntiReplayTest, SeqSpoofNeverAdvancesTheCursor) {
  wiot::StreamAttackConfig attack;
  attack.kind = wiot::StreamAttackKind::kSeqSpoof;
  attack.probability = 0.1;
  wiot::StreamAttackStats stats;
  const auto attacked = wiot::apply_stream_attack(*clean_, attack, &stats);
  ASSERT_GT(stats.injected, 0u);

  FleetConfig config = base_config();
  config.anti_replay.suspicion_threshold =
      std::numeric_limits<std::uint64_t>::max();
  const RunResult hit = run(config, attacked);
  const RunResult baseline = run(config, *clean_);

  EXPECT_EQ(hit.seq_anomalies, stats.injected);
  EXPECT_EQ(hit.replay_dropped, 0u) << "forward spoofs are not replays";
  // Spoofed packets reach the station (it keeps its own rejection
  // accounting) but must not drag the ingest cursors forward — every
  // genuine packet that follows still lands.
  EXPECT_EQ(hit.station.seq_rejected, stats.injected);
  EXPECT_EQ(hit.station.packets_received, attacked.size());
  expect_conservation(hit);
  EXPECT_EQ(hit.windows, baseline.windows)
      << "spoof must not orphan genuine traffic";
  EXPECT_EQ(hit.alerts, baseline.alerts);
}

TEST_F(AntiReplayTest, DuplicateFloodIsDedupedWithoutSuspicion) {
  wiot::StreamAttackConfig attack;
  attack.kind = wiot::StreamAttackKind::kDuplicateFlood;
  attack.probability = 0.1;
  wiot::StreamAttackStats stats;
  const auto attacked = wiot::apply_stream_attack(*clean_, attack, &stats);
  ASSERT_GT(stats.injected, 0u);

  const RunResult hit = run(base_config(), attacked);
  const RunResult baseline = run(base_config(), *clean_);

  // Immediate duplicates sit inside the replay window: a jammed ARQ loop
  // is congestion, not an attack, and must not accrue suspicion.
  EXPECT_EQ(hit.seq_anomalies, 0u);
  EXPECT_EQ(hit.station.duplicates_ignored, stats.injected);
  expect_conservation(hit);
  EXPECT_EQ(hit.windows, baseline.windows);
  EXPECT_EQ(hit.alerts, baseline.alerts);
}

TEST_F(AntiReplayTest, StaleCursorResumeSplitsAcrossWindowAndDedupe) {
  wiot::StreamAttackConfig attack;
  attack.kind = wiot::StreamAttackKind::kStaleCursorResume;
  attack.onset = 60;
  wiot::StreamAttackStats stats;
  const auto attacked = wiot::apply_stream_attack(*clean_, attack, &stats);
  ASSERT_EQ(stats.injected, attack.onset);

  FleetConfig config = base_config();
  config.anti_replay.suspicion_threshold =
      std::numeric_limits<std::uint64_t>::max();
  const RunResult hit = run(config, attacked);
  const RunResult baseline = run(config, *clean_);

  // The re-sent prefix splits: the deep end is beyond the replay window
  // (dropped as replay), the shallow end inside it (station dedupe). Both
  // must account for every injected packet.
  EXPECT_GT(hit.replay_dropped, 0u);
  EXPECT_GT(hit.station.duplicates_ignored, 0u);
  EXPECT_EQ(hit.replay_dropped + hit.station.duplicates_ignored,
            stats.injected);
  EXPECT_EQ(hit.seq_anomalies, hit.replay_dropped);
  expect_conservation(hit);
  EXPECT_EQ(hit.windows, baseline.windows);
}

TEST_F(AntiReplayTest, ResendFromHandedOutCursorSurvivesStaleInFlightTail) {
  // A reconnect races the dead connection's tail: the cursor is handed out
  // while that tail still sits in the worker's ring, the tail then moves
  // the cursor more than replay_window past it, and only then does the
  // client resend from the cursor it was given. The resend is a benign
  // overlap — the station dedupe sheds it and nothing is charged.
  constexpr std::uint32_t kStaleTail = 22;  // seqs past the cursor in flight
  FleetConfig config = base_config();
  config.workers = 1;
  ASSERT_GT(kStaleTail, config.anti_replay.replay_window);

  FleetEngine engine(provider(), config);
  ASSERT_TRUE(feed_and_settle(engine, seq_in(0, kResumeAt)));
  const SessionCursors resumed = engine.cursors_for_resume(0);
  ASSERT_EQ(resumed.ecg, kResumeAt);
  ASSERT_EQ(resumed.abp, kResumeAt);

  const auto stale = seq_in(kResumeAt, kResumeAt + kStaleTail);
  for (const auto& p : stale) engine.ingest(0, p);
  for (const auto& p : seq_in(kResumeAt, ~0u)) engine.ingest(0, p);
  // Once the resend has caught up the grace is over: replays on either
  // channel are charged again, including one at the handed-out cursor.
  for (const auto& p : seq_in(0, 1)) engine.ingest(0, p);
  for (const auto& p : seq_in(kResumeAt, kResumeAt + 1)) engine.ingest(0, p);
  engine.drain();

  auto& m = engine.metrics();
  EXPECT_EQ(m.counter("fleet.seq_anomalies").value(), 4u);
  EXPECT_EQ(m.counter("fleet.replay_dropped").value(), 4u);
  wiot::BaseStation::Stats station;
  engine.sessions().for_each(
      [&](int, const Session& s) { station = s.stats(); });
  EXPECT_EQ(station.duplicates_ignored, stale.size());
  EXPECT_EQ(m.counter("fleet.windows_classified").value(),
            run(config, *clean_).windows);
}

TEST_F(AntiReplayTest, ReplayOlderThanHandedOutCursorIsChargedAfterCleanResume) {
  // A clean reconnect resends from the handed-out cursor with no overlap,
  // so the grace never sees a resend go behind the cursor. A later replay
  // older than that cursor by more than replay_window is still charged.
  FleetConfig config = base_config();
  config.workers = 1;
  ASSERT_GT(kResumeAt, config.anti_replay.replay_window);

  FleetEngine engine(provider(), config);
  ASSERT_TRUE(feed_and_settle(engine, seq_in(0, kResumeAt)));
  const SessionCursors resumed = engine.cursors_for_resume(0);
  ASSERT_EQ(resumed.ecg, kResumeAt);
  ASSERT_EQ(resumed.abp, kResumeAt);
  for (const auto& p : seq_in(kResumeAt, ~0u)) engine.ingest(0, p);
  for (const auto& p : seq_in(0, 1)) engine.ingest(0, p);
  engine.drain();

  auto& m = engine.metrics();
  EXPECT_EQ(m.counter("fleet.seq_anomalies").value(), 2u);
  EXPECT_EQ(m.counter("fleet.replay_dropped").value(), 2u);
  EXPECT_EQ(m.counter("fleet.windows_classified").value(),
            run(config, *clean_).windows);
}

TEST_F(AntiReplayTest, SustainedReplayQuarantinesAndProbeRecovers) {
  wiot::StreamAttackConfig attack;
  attack.kind = wiot::StreamAttackKind::kReplayPastCursor;
  attack.probability = 0.3;  // sustained: suspicion must cross the threshold
  std::vector<wiot::Packet> stream =
      wiot::apply_stream_attack(*clean_, attack);
  // Clean continuation: the attacker goes quiet and the probe machinery
  // must walk the session back out of quarantine.
  stream.insert(stream.end(), tail_->begin(), tail_->end());

  const RunResult r = run(base_config(), stream);

  EXPECT_GE(r.health.suspect_entries, 1u) << "suspicion crossed the threshold";
  EXPECT_GE(r.suspect_sessions, 1u);
  EXPECT_GT(r.quarantine_dropped, 0u) << "verdicts withheld while suspect";
  EXPECT_GE(r.quarantine_exits, 1u) << "probe recovered the session";
  EXPECT_FALSE(r.health.quarantined)
      << "after a clean tail the session is live again";
  expect_conservation(r);
  // Graceful degradation, not a hard drop: the clean tail is classified.
  EXPECT_GT(r.windows, 0u);
}

TEST_F(AntiReplayTest, DefensesAreDeterministicAcrossWorkers) {
  wiot::StreamAttackConfig attack;
  attack.kind = wiot::StreamAttackKind::kReplayPastCursor;
  attack.probability = 0.3;
  std::vector<wiot::Packet> stream =
      wiot::apply_stream_attack(*clean_, attack);
  stream.insert(stream.end(), tail_->begin(), tail_->end());

  FleetConfig narrow = base_config();
  narrow.workers = 1;
  FleetConfig wide = base_config();
  wide.workers = 4;
  const RunResult a = run(narrow, stream);
  const RunResult b = run(wide, stream);

  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.seq_anomalies, b.seq_anomalies);
  EXPECT_EQ(a.replay_dropped, b.replay_dropped);
  EXPECT_EQ(a.quarantine_dropped, b.quarantine_dropped);
  EXPECT_EQ(a.suspect_sessions, b.suspect_sessions);
  EXPECT_EQ(a.quarantine_exits, b.quarantine_exits);
  EXPECT_EQ(a.health.suspicion, b.health.suspicion);
  EXPECT_EQ(a.station.windows_classified, b.station.windows_classified);
  expect_conservation(a);
  expect_conservation(b);
}

TEST_F(AntiReplayTest, PerUserAnomalyBreakdownAppearsInSnapshot) {
  wiot::StreamAttackConfig attack;
  attack.kind = wiot::StreamAttackKind::kReplayPastCursor;
  attack.probability = 0.1;
  const auto attacked = wiot::apply_stream_attack(*clean_, attack);

  FleetConfig config = base_config();
  FleetEngine engine(provider(), config);
  for (const auto& p : attacked) engine.ingest(0, p);
  engine.drain();
  const std::string json = engine.metrics_json();
  EXPECT_NE(json.find("fleet.seq_anomalies"), std::string::npos);
  EXPECT_NE(json.find("fleet.user.0.seq_anomalies"), std::string::npos)
      << "per-user breakdown missing from the snapshot";
  EXPECT_NE(json.find("fleet.suspect_sessions_active"), std::string::npos);
}

}  // namespace
}  // namespace sift::fleet
