// Chaos suite: the fleet engine under a seeded fault schedule.
//
// A FaultInjector drives every injection point at once — payload
// corruption on the radio path, a flaky model provider, worker-path
// throws, and per-shard overload bursts — while the engine runs a 64
// session cohort to completion. Because every injection decision is a
// pure function of (seed, user, seq, kind), the assertions are *exact*:
// rejects equal injections, breaker trips equal the scheduled provider
// failures, quarantines equal the scheduled worker-fault bursts, and
// fault-free sessions finish bit-identical to a no-fault control run.
//
// The base seed can be overridden via the SIFT_CHAOS_SEED environment
// variable, which is how CI runs the suite as a seed matrix under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/features.hpp"
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

class ChaosTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSessions = 64;

  static void SetUpTestSuite() {
    ReplayConfig config;
    config.sessions = kSessions;
    config.seconds = 9.0;  // 3 windows per session, ~36 packets each
    config.distinct_users = 2;
    config.train_seconds = 60.0;
    config.train_all_tiers = true;  // the overload test walks the ladder
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

  /// Per-user outcome of one full replay, for exact comparisons.
  struct SessionOutcome {
    wiot::BaseStation::Stats stats;
    Session::Health health;
    std::vector<double> decisions;  ///< decision_value per report
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

  static ReplayFixture* fixture_;
};

ReplayFixture* ChaosTest::fixture_ = nullptr;

// The full fault matrix: corruption + provider failure + worker throws at
// once. producers=1 keeps per-shard dequeue order deterministic.
TEST_F(ChaosTest, SurvivesFullFaultMatrixWithExactAccounting) {
  const std::vector<int> payload_users{0, 1, 2, 3};
  const std::vector<int> provider_users{8, 9};
  const std::vector<int> worker_users{16, 17};

  FaultConfig fc;
  fc.seed = base_seed();
  fc.payload_users = payload_users;
  fc.nan_probability = 0.10;
  fc.corrupt_probability = 0.10;
  fc.truncate_probability = 0.10;
  fc.seq_skew_probability = 0.05;
  fc.provider_fail_users = provider_users;
  fc.provider_failures_per_user = 3;  // == breaker threshold, below
  fc.worker_throw_users = worker_users;
  fc.worker_throws_per_user = 4;  // entry, one failed probe, then recovery
  FaultInjector injector(fc);

  FleetConfig config = engine_config();
  config.injector = &injector;
  config.breaker.failure_threshold = 3;
  config.breaker.initial_backoff = std::chrono::milliseconds{0};
  // Never half-open during the run: provider-fault sessions stay unscored,
  // which makes every breaker count exact.
  config.breaker.open_deadline = std::chrono::hours{24};
  config.supervision.quarantine_threshold = 3;
  config.supervision.probe_interval = 2;

  // Control run first: same fixture, no faults.
  FleetConfig control_config = engine_config();
  FleetEngine control(fixture_->provider(), control_config);
  replay_through(control, *fixture_, /*producers=*/1);
  const auto expected = collect(control);

  FleetEngine engine(injector.wrap_provider(fixture_->provider()), config);
  const auto result = replay_through(engine, *fixture_, /*producers=*/1,
                                     &injector);
  const FaultCounts counts = injector.counts();

  // --- clean drain: every offered packet was either rejected or processed.
  auto counter = [&engine](const char* name) {
    return engine.metrics().counter(name).value();
  };
  EXPECT_GT(counts.payload_total(), 0u) << "schedule must actually fire";
  EXPECT_EQ(counter("fleet.packets_rejected"), counts.payload_total())
      << "every injected payload fault is caught at ingest, nothing else is";
  EXPECT_EQ(counter("fleet.ingest_packets"),
            result.packets_offered - counts.payload_total())
      << "block policy: everything accepted is processed";
  EXPECT_EQ(counter("fleet.queue_dropped"), 0u);

  // --- per-user reject attribution.
  for (int user : payload_users) {
    EXPECT_GT(engine.rejects_for(user), 0u) << "user " << user;
  }
  EXPECT_EQ(engine.rejects_for(40), 0u);

  // --- circuit breaker accounting, exact.
  EXPECT_EQ(counts.provider_throws,
            provider_users.size() * fc.provider_failures_per_user);
  EXPECT_EQ(engine.models().provider_failures(), counts.provider_throws);
  EXPECT_EQ(engine.models().breaker_opens(), provider_users.size());
  EXPECT_EQ(engine.models().open_breakers(), provider_users.size())
      << "deadline is hours away: breakers stay open through the run";
  for (int user : provider_users) {
    EXPECT_EQ(engine.models().breaker_state(user),
              CircuitBreaker::State::kOpen);
  }

  // --- worker supervision accounting, exact.
  EXPECT_EQ(counts.worker_throws,
            worker_users.size() * fc.worker_throws_per_user);
  EXPECT_EQ(counter("fleet.worker_faults"), counts.worker_throws);
  EXPECT_EQ(counter("fleet.sessions_quarantined"), worker_users.size())
      << "one quarantine entry per worker-fault user";
  EXPECT_EQ(counter("fleet.quarantine_exits"), worker_users.size())
      << "every quarantined session recovered via a probe";
  EXPECT_GT(counter("fleet.quarantine_dropped"), 0u);

  const auto outcomes = collect(engine);
  ASSERT_EQ(outcomes.size(), kSessions);

  for (const auto& [user, outcome] : outcomes) {
    const bool is_payload =
        std::find(payload_users.begin(), payload_users.end(), user) !=
        payload_users.end();
    const bool is_provider =
        std::find(provider_users.begin(), provider_users.end(), user) !=
        provider_users.end();
    const bool is_worker =
        std::find(worker_users.begin(), worker_users.end(), user) !=
        worker_users.end();

    // Quarantine hit exactly the worker-fault users, and all recovered.
    EXPECT_EQ(outcome.health.quarantine_entries, is_worker ? 1u : 0u)
        << "user " << user;
    EXPECT_FALSE(outcome.health.quarantined) << "user " << user;
    if (is_worker) {
      EXPECT_EQ(outcome.health.quarantine_exits, 1u) << "user " << user;
      EXPECT_GT(outcome.health.quarantine_dropped, 0u) << "user " << user;
    }

    // Provider-fault sessions ran unscored end to end — alive, aligned,
    // verdicts withheld rather than fabricated.
    if (is_provider) {
      EXPECT_FALSE(outcome.scored) << "user " << user;
      EXPECT_GT(outcome.stats.windows_classified, 0u) << "user " << user;
      EXPECT_EQ(outcome.stats.unscored_windows,
                outcome.stats.windows_classified)
          << "user " << user;
      for (bool unscored : outcome.unscored) EXPECT_TRUE(unscored);
      continue;
    }
    EXPECT_TRUE(outcome.scored) << "user " << user;
    EXPECT_EQ(outcome.stats.unscored_windows, 0u) << "user " << user;

    // Fault-free sessions: bit-identical to the no-fault control run.
    if (!is_payload && !is_worker) {
      const auto& want = expected.at(user);
      EXPECT_EQ(outcome.stats.windows_classified,
                want.stats.windows_classified)
          << "user " << user;
      EXPECT_EQ(outcome.stats.alerts, want.stats.alerts) << "user " << user;
      ASSERT_EQ(outcome.decisions.size(), want.decisions.size())
          << "user " << user;
      for (std::size_t w = 0; w < outcome.decisions.size(); ++w) {
        EXPECT_EQ(outcome.decisions[w], want.decisions[w])
            << "user " << user << " window " << w
            << ": fault-free sessions must be bit-identical";
      }
    }
  }

  const std::string json = engine.metrics_json();
  EXPECT_NE(json.find("fleet.packets_rejected"), std::string::npos);
  EXPECT_NE(json.find("fleet.sessions_quarantined"), std::string::npos);
  EXPECT_NE(json.find("fleet.breaker_open"), std::string::npos);
  EXPECT_NE(json.find("fleet.tier_downgrades"), std::string::npos);
}

// Same seed, same schedule, same counters: the whole matrix is replayable.
TEST_F(ChaosTest, SameSeedReplaysIdentically) {
  auto run = [&](std::uint64_t seed) {
    FaultConfig fc;
    fc.seed = seed;
    fc.payload_users = {0, 1, 2, 3, 4, 5};
    fc.nan_probability = 0.08;
    fc.corrupt_probability = 0.08;
    fc.truncate_probability = 0.08;
    fc.seq_skew_probability = 0.04;
    FaultInjector injector(fc);
    FleetConfig config = engine_config();
    config.injector = &injector;
    FleetEngine engine(fixture_->provider(), config);
    replay_through(engine, *fixture_, /*producers=*/2, &injector);
    return std::pair(injector.counts(),
                     engine.metrics().counter("fleet.packets_rejected")
                         .value());
  };
  const auto [counts_a, rejected_a] = run(base_seed() + 7);
  const auto [counts_b, rejected_b] = run(base_seed() + 7);
  EXPECT_EQ(counts_a.nan_samples, counts_b.nan_samples);
  EXPECT_EQ(counts_a.corrupted, counts_b.corrupted);
  EXPECT_EQ(counts_a.truncated, counts_b.truncated);
  EXPECT_EQ(counts_a.seq_skewed, counts_b.seq_skewed);
  EXPECT_EQ(rejected_a, rejected_b);
  EXPECT_EQ(rejected_a, counts_a.payload_total())
      << "2 producers: counts still exact, only ordering varies";
}

// An overload burst on one shard walks its sessions down the paper's
// detector ladder (Original → Simplified → Reduced) and back up after the
// burst — with exact transition counts.
TEST_F(ChaosTest, OverloadBurstWalksTheDegradationLadderAndRecovers) {
  FleetConfig config = engine_config();

  // Count the sessions the engine will place on shard 0 (the shard_of
  // mapping is deterministic, so a throwaway table predicts it).
  ModelRegistry probe_registry(fixture_->provider(), 4);
  SessionTable probe_table(config.shards, probe_registry, config.station);
  std::vector<int> shard0_users;
  for (int user = 0; user < static_cast<int>(kSessions); ++user) {
    if (probe_table.shard_of(user) == 0) shard0_users.push_back(user);
  }
  ASSERT_GT(shard0_users.size(), 0u);
  const std::size_t n0 = shard0_users.size();

  FaultConfig fc;
  fc.seed = base_seed();
  fc.overload_shards = {0};
  fc.overload_from_dequeue = 0;
  // ~10 burst packets per shard-0 session: enough for both downgrades
  // (cooldown 4 ⇒ the second lands on the session's 6th packet).
  fc.overload_until_dequeue = 10 * n0;
  // The depth a shed check observes is the shard queue plus the worker's
  // remaining chunk, so a naturally saturated queue can read as high as
  // capacity + kDrainChunk - 1. Put the watermark past that: only the
  // injector's forced depth can cross it.
  fc.overload_forced_depth =
      config.queue_capacity + FleetEngine::kDrainChunk + 2;
  FaultInjector injector(fc);

  config.injector = &injector;
  config.load_shed.enabled = true;
  config.load_shed.high_watermark = fc.overload_forced_depth;  // burst only
  // Any real depth allows stepping back up: recovery is deterministic the
  // moment the burst window closes.
  config.load_shed.low_watermark = config.queue_capacity;
  config.load_shed.cooldown_packets = 4;

  FleetEngine engine(fixture_->provider_tiered(), config);
  replay_through(engine, *fixture_, /*producers=*/1, &injector);

  auto counter = [&engine](const char* name) {
    return engine.metrics().counter(name).value();
  };
  EXPECT_EQ(injector.counts().overload_dequeues, 10 * n0);
  EXPECT_EQ(counter("fleet.tier_downgrades"), 2 * n0)
      << "every shard-0 session stepped Original→Simplified→Reduced";
  EXPECT_EQ(counter("fleet.tier_upgrades"), 2 * n0)
      << "and climbed back to its home tier after the burst";

  const auto outcomes = collect(engine);
  for (const auto& [user, outcome] : outcomes) {
    EXPECT_EQ(outcome.tier, core::DetectorVersion::kOriginal)
        << "user " << user << " ended away from its home tier";
    EXPECT_TRUE(outcome.scored) << "user " << user;
  }
}

// Load-shed on a plain (untiered) provider is silently inactive: no
// artefacts to step onto, no transitions, no behaviour change.
TEST_F(ChaosTest, LoadShedIsInertWithoutTieredProvider) {
  FaultConfig fc;
  fc.seed = base_seed();
  fc.overload_shards = {0, 1, 2, 3, 4, 5, 6, 7};
  fc.overload_forced_depth = 1 << 20;
  FaultInjector injector(fc);

  FleetConfig config = engine_config();
  config.injector = &injector;
  config.load_shed.enabled = true;
  config.load_shed.high_watermark = 1;

  FleetEngine engine(fixture_->provider(), config);
  replay_through(engine, *fixture_, /*producers=*/1, &injector);
  EXPECT_EQ(engine.metrics().counter("fleet.tier_downgrades").value(), 0u);
  EXPECT_EQ(engine.metrics().counter("fleet.tier_upgrades").value(), 0u);
  EXPECT_EQ(engine.windows_classified(),
            engine.metrics().counter("fleet.windows_classified").value());
}

// A provider that heals (fails N times, then serves) lets an unscored
// session upgrade itself mid-stream: early windows unscored, later windows
// scored, no packets lost.
TEST_F(ChaosTest, UnscoredSessionHealsWhenProviderRecovers) {
  FaultConfig fc;
  fc.seed = base_seed();
  fc.provider_fail_users = {5};
  // A window needs 12 packets (6 per channel); fail past the second window
  // boundary (packet 24) so the heal provably lands mid-stream: windows 1-2
  // unscored, window 3 scored.
  fc.provider_failures_per_user = 25;
  FaultInjector injector(fc);

  FleetConfig config = engine_config();
  config.injector = &injector;
  config.breaker.failure_threshold = 2;
  config.breaker.initial_backoff = std::chrono::milliseconds{0};
  config.breaker.open_deadline = std::chrono::milliseconds{0};  // probe ASAP

  FleetEngine engine(injector.wrap_provider(fixture_->provider()), config);
  replay_through(engine, *fixture_, /*producers=*/1, &injector);

  const auto outcomes = collect(engine);
  const auto& healed = outcomes.at(5);
  EXPECT_TRUE(healed.scored) << "the session installed a model mid-stream";
  EXPECT_GT(healed.stats.unscored_windows, 0u)
      << "early windows ran without a model";
  EXPECT_LT(healed.stats.unscored_windows, healed.stats.windows_classified);
  EXPECT_FALSE(healed.unscored.back()) << "last window is scored";
  EXPECT_EQ(injector.counts().provider_throws, 25u);
  EXPECT_EQ(engine.models().breaker_state(5), CircuitBreaker::State::kClosed);
}

}  // namespace
}  // namespace sift::fleet
