// Tests for the fleet runtime: metrics instruments, the LRU model
// registry, the sharded session table, and the multi-threaded engine
// against a single-threaded reference. The stress test is the concurrency
// canary: it must stay deterministic (block policy, per-user FIFO) and
// clean under SIFT_SANITIZE=thread.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_guard.hpp"
#include "core/trainer.hpp"
#include "fleet/engine.hpp"
#include "fleet/metrics.hpp"
#include "fleet/model_registry.hpp"
#include "fleet/replay.hpp"
#include "fleet/session_table.hpp"
#include "fleet/thread_name.hpp"
#include "io/model_file.hpp"
#include "physio/dataset.hpp"

namespace sift::fleet {
namespace {

// --- metrics ---------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  registry.counter("a").add();
  registry.counter("a").add(4);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  registry.gauge("g").set(-3);
  registry.gauge("g").add(10);
  EXPECT_EQ(registry.gauge("g").value(), 7);
}

TEST(Metrics, HistogramQuantilesInterpolateWithinBuckets) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile_us(0.5), 0.0) << "empty histogram reads 0";
  // 100 observations of ~30 µs land in the (20, 50] bucket.
  for (int i = 0; i < 100; ++i) h.observe_us(30.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(h.quantile_us(0.5), 20.0);
  EXPECT_LE(h.quantile_us(0.5), 50.0);
  EXPECT_NEAR(h.mean_us(), 30.0, 1.0);
}

TEST(Metrics, HistogramSeparatesFastAndSlowPopulations) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.observe_us(10.0);   // (5, 10] bucket
  h.observe_us(9e6);                                 // ~9 s outlier
  EXPECT_LE(h.quantile_us(0.5), 10.0);
  EXPECT_GT(h.quantile_us(0.999), 1e6) << "tail sees the outlier";
}

TEST(Metrics, HistogramOverflowBucketIsCapped) {
  LatencyHistogram h;
  h.observe_us(1e9);  // beyond the last bound: open-ended bucket
  EXPECT_DOUBLE_EQ(h.quantile_us(0.99), 1e7);
}

TEST(Metrics, ThreadCpuIsSummedPerThreadName) {
  if (!std::filesystem::exists("/proc/thread-self/schedstat")) {
    GTEST_SKIP() << "no per-thread schedstat on this kernel";
  }
  // Two threads of one name each burn 20 ms of their own CPU time, then
  // wait (alive, so /proc still lists them) while the gauges are read.
  constexpr std::int64_t kBurnUs = 20000;
  std::atomic<int> burned{0};
  std::atomic<bool> release{false};
  const auto burn = [&] {
    name_this_thread("sift-probe");
    timespec t{};
    do {
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    } while (t.tv_sec * 1000000 + t.tv_nsec / 1000 < kBurnUs);
    burned.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  };
  std::jthread a(burn);
  std::jthread b(burn);
  while (burned.load() < 2) std::this_thread::yield();

  MetricsRegistry registry;
  record_thread_cpu(registry, "t.");
  release.store(true);
  EXPECT_GE(registry.gauge("t.sift-probe.run_us").value(), 2 * kBurnUs);
  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"t.sift-probe.vcsw\""), std::string::npos);
  EXPECT_NE(json.find("\"t.sift-probe.ivcsw\""), std::string::npos);
}

TEST(Metrics, JsonSnapshotListsEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("fleet.ingest_packets").add(7);
  registry.gauge("fleet.queue_depth").set(3);
  registry.histogram("fleet.detect_latency").observe_us(42.0);
  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"fleet.ingest_packets\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"fleet.queue_depth\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"fleet.detect_latency.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("fleet.detect_latency.p50_us"), std::string::npos);
  EXPECT_NE(json.find("fleet.detect_latency.p99_us"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// --- model registry ---------------------------------------------------------

TEST(ModelRegistry, LruKeepsHotModelsAndCountsTraffic) {
  std::atomic<int> loads{0};
  ModelRegistry registry(
      [&](int) {
        ++loads;
        return std::make_shared<const core::UserModel>();
      },
      /*capacity=*/2);
  const auto m1 = registry.try_acquire(1).model;
  for (int user : {2, 1, 3}) {  // 1 becomes most-recent, 3 evicts 2
    const auto lease = registry.try_acquire(user);
    EXPECT_NE(lease.model, nullptr);
    EXPECT_EQ(lease.status, ModelRegistry::AcquireStatus::kLoaded);
  }
  EXPECT_EQ(registry.resident(), 2u);
  EXPECT_EQ(registry.evictions(), 1u);
  EXPECT_NE(registry.try_acquire(2).model, nullptr);  // miss: reloads
  EXPECT_EQ(loads.load(), 4);
  EXPECT_EQ(registry.hits(), 1u);
  EXPECT_EQ(registry.misses(), 4u);
  EXPECT_NE(m1, nullptr) << "caller's shared_ptr survives any eviction";
}

TEST(ModelRegistry, ValidatesConstructionAndProvider) {
  auto ok = [](int) { return std::make_shared<const core::UserModel>(); };
  EXPECT_THROW(ModelRegistry(ModelProvider{}, 2), std::invalid_argument);
  EXPECT_THROW(ModelRegistry(ok, 0), std::invalid_argument);
  ModelRegistry broken([](int) { return std::shared_ptr<const core::UserModel>(); },
                       2);
  const auto lease = broken.try_acquire(1);
  EXPECT_EQ(lease.model, nullptr);
  EXPECT_EQ(lease.status, ModelRegistry::AcquireStatus::kLoadFailed);
}

// --- circuit breaker --------------------------------------------------------

using Clock = std::chrono::steady_clock;

TEST(CircuitBreaker, WalksClosedOpenHalfOpenClosed) {
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_deadline = std::chrono::milliseconds{100};
  CircuitBreaker breaker(policy);
  Clock::time_point t{};

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(t));
  breaker.record_failure(t);
  breaker.record_failure(t += policy.initial_backoff);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed)
      << "below threshold stays closed";
  breaker.record_failure(t += 2 * policy.initial_backoff);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);

  EXPECT_FALSE(breaker.allow(t)) << "open fails fast";
  EXPECT_FALSE(breaker.allow(t + std::chrono::milliseconds{99}))
      << "deadline not reached";
  EXPECT_TRUE(breaker.allow(t += std::chrono::milliseconds{100}))
      << "deadline passed: this caller is the half-open probe";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(t)) << "only one probe at a time";

  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.allow(t));
}

TEST(CircuitBreaker, FailedProbeReopensImmediately) {
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_deadline = std::chrono::milliseconds{50};
  CircuitBreaker breaker(policy);
  Clock::time_point t{};

  breaker.record_failure(t);  // threshold 1: straight to open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.allow(t += std::chrono::milliseconds{50}));
  breaker.record_failure(t);  // the probe fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  EXPECT_FALSE(breaker.allow(t + std::chrono::milliseconds{49}))
      << "a fresh deadline was armed";
}

TEST(CircuitBreaker, ClosedBackoffDoublesAndCaps) {
  BreakerPolicy policy;
  policy.failure_threshold = 100;  // stay closed throughout
  policy.initial_backoff = std::chrono::milliseconds{10};
  policy.max_backoff = std::chrono::milliseconds{35};
  CircuitBreaker breaker(policy);
  Clock::time_point t{};

  breaker.record_failure(t);
  EXPECT_FALSE(breaker.allow(t + std::chrono::milliseconds{9}));
  EXPECT_TRUE(breaker.allow(t + std::chrono::milliseconds{10}));
  breaker.record_failure(t);
  EXPECT_FALSE(breaker.allow(t + std::chrono::milliseconds{19}));
  EXPECT_TRUE(breaker.allow(t + std::chrono::milliseconds{20}));
  breaker.record_failure(t);  // 40ms would exceed the cap
  EXPECT_TRUE(breaker.allow(t + std::chrono::milliseconds{35}))
      << "backoff capped at max_backoff";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// --- registry + breaker integration ----------------------------------------

TEST(ModelRegistry, BreakerOpensAfterThresholdAndHealsOnProbe) {
  // Manual clock so the test never sleeps.
  auto now = std::make_shared<Clock::time_point>();
  int failures_left = 4;
  int calls = 0;
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.initial_backoff = std::chrono::milliseconds{0};  // retry instantly
  policy.open_deadline = std::chrono::milliseconds{100};
  ModelRegistry registry(
      [&](int) -> std::shared_ptr<const core::UserModel> {
        ++calls;
        if (failures_left > 0) {
          --failures_left;
          throw std::runtime_error("provisioning down");
        }
        return std::make_shared<const core::UserModel>();
      },
      4, policy, [now] { return *now; });

  // Three failing loads trip the breaker.
  for (int i = 0; i < 3; ++i) {
    const auto lease = registry.try_acquire(7);
    EXPECT_EQ(lease.status, ModelRegistry::AcquireStatus::kLoadFailed);
    EXPECT_EQ(lease.model, nullptr);
  }
  EXPECT_EQ(registry.breaker_state(7), CircuitBreaker::State::kOpen);
  EXPECT_EQ(registry.breaker_opens(), 1u);
  EXPECT_EQ(registry.open_breakers(), 1u);
  EXPECT_EQ(calls, 3);

  // While open: fail fast, provider untouched.
  EXPECT_EQ(registry.try_acquire(7).status,
            ModelRegistry::AcquireStatus::kBreakerOpen);
  EXPECT_EQ(calls, 3);

  // Deadline passes; the half-open probe still fails → re-open.
  *now += std::chrono::milliseconds{100};
  EXPECT_EQ(registry.try_acquire(7).status,
            ModelRegistry::AcquireStatus::kLoadFailed);
  EXPECT_EQ(registry.breaker_state(7), CircuitBreaker::State::kOpen);
  EXPECT_EQ(registry.breaker_opens(), 2u);

  // Next probe succeeds → closed, model served, counters settle.
  *now += std::chrono::milliseconds{100};
  const auto healed = registry.try_acquire(7);
  EXPECT_EQ(healed.status, ModelRegistry::AcquireStatus::kLoaded);
  ASSERT_NE(healed.model, nullptr);
  EXPECT_EQ(registry.breaker_state(7), CircuitBreaker::State::kClosed);
  EXPECT_EQ(registry.open_breakers(), 0u);
  EXPECT_EQ(registry.provider_failures(), 4u);
  EXPECT_GE(registry.provider_retries(), 3u);

  // Healed user is a plain cache hit now.
  EXPECT_EQ(registry.try_acquire(7).status,
            ModelRegistry::AcquireStatus::kLoaded);
  EXPECT_EQ(calls, 5);
}

TEST(ModelRegistry, BreakersAreIndependentAcrossUsersSharingAProvider) {
  // One failing provisioning service, many concurrent sessions: user 1's
  // open breaker must not block user 2, and concurrent acquires of the
  // same failing user must agree on the breaker state.
  BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.initial_backoff = std::chrono::milliseconds{0};
  policy.open_deadline = std::chrono::hours{1};
  ModelRegistry registry(
      [&](int user) -> std::shared_ptr<const core::UserModel> {
        if (user == 1) throw std::runtime_error("artefact corrupt");
        return std::make_shared<const core::UserModel>();
      },
      8, policy);

  std::vector<std::thread> threads;
  std::atomic<int> user1_loaded{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (registry.try_acquire(1).model) ++user1_loaded;
        EXPECT_NE(registry.try_acquire(2).model, nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(user1_loaded.load(), 0);
  EXPECT_EQ(registry.breaker_state(1), CircuitBreaker::State::kOpen);
  EXPECT_EQ(registry.breaker_state(2), CircuitBreaker::State::kClosed);
  EXPECT_EQ(registry.open_breakers(), 1u);
  EXPECT_EQ(registry.breaker_opens(), 1u) << "opens exactly once";
  EXPECT_EQ(registry.provider_failures(), 2u)
      << "after the breaker opens the provider is never called again";
}

TEST(ModelRegistry, TierRequestsOnPlainProviderAreUnavailable) {
  ModelRegistry registry(
      [](int) { return std::make_shared<const core::UserModel>(); }, 4);
  EXPECT_FALSE(registry.tiered());
  const auto lease =
      registry.try_acquire(1, core::DetectorVersion::kReduced);
  EXPECT_EQ(lease.status, ModelRegistry::AcquireStatus::kUnavailable);
  EXPECT_EQ(lease.model, nullptr);
}

TEST(ModelRegistry, TieredProviderCachesPerTier) {
  int calls = 0;
  ModelRegistry registry(
      TieredModelProvider([&](int, core::DetectorVersion version) {
        ++calls;
        auto m = std::make_shared<core::UserModel>();
        m->config.version = version;
        return std::shared_ptr<const core::UserModel>(std::move(m));
      }),
      8);
  EXPECT_TRUE(registry.tiered());
  const auto original =
      registry.try_acquire(3, core::DetectorVersion::kOriginal);
  const auto reduced =
      registry.try_acquire(3, core::DetectorVersion::kReduced);
  ASSERT_NE(original.model, nullptr);
  ASSERT_NE(reduced.model, nullptr);
  EXPECT_EQ(original.model->config.version, core::DetectorVersion::kOriginal);
  EXPECT_EQ(reduced.model->config.version, core::DetectorVersion::kReduced);
  EXPECT_EQ(calls, 2) << "distinct cache entries per tier";
  registry.try_acquire(3, core::DetectorVersion::kReduced);
  EXPECT_EQ(calls, 2) << "tier hit served from cache";
}

TEST(ModelRegistry, TieredDefaultTierIsTheOriginalEntry) {
  // The fleet warm-loads a model store at kOriginal and then acquires at
  // the default tier on each session's first packet: both must name one
  // cache entry, or every session re-reads its model from disk.
  int calls = 0;
  const auto now = std::chrono::steady_clock::now();
  ModelRegistry registry(
      TieredModelProvider([&](int user_id, core::DetectorVersion version) {
        ++calls;
        if (user_id == 5) return std::shared_ptr<const core::UserModel>{};
        auto m = std::make_shared<core::UserModel>();
        m->config.version = version;
        return std::shared_ptr<const core::UserModel>(std::move(m));
      }),
      8, BreakerPolicy{}, [&] { return now; });
  const std::vector<int> ids = {3};
  ASSERT_EQ(registry.warm_load(ids, core::DetectorVersion::kOriginal), 1u);
  const auto lease = registry.try_acquire(3);
  ASSERT_NE(lease.model, nullptr);
  EXPECT_EQ(lease.model->config.version, core::DetectorVersion::kOriginal);
  EXPECT_EQ(calls, 1) << "default-tier acquire hits the warm Original entry";
  EXPECT_EQ(registry.hits(), 1u);
  EXPECT_EQ(registry.resident(), 1u);

  // One breaker too: a default-tier failure backs off the Original tier.
  EXPECT_EQ(registry.try_acquire(5).status,
            ModelRegistry::AcquireStatus::kLoadFailed);
  EXPECT_EQ(registry.try_acquire(5, core::DetectorVersion::kOriginal).status,
            ModelRegistry::AcquireStatus::kBackoff);
  EXPECT_EQ(calls, 2);
}

TEST(ModelRegistry, WarmLoadFillsUpToCapacityAndCountsSuccesses) {
  std::atomic<int> loads{0};
  ModelRegistry registry(
      TieredModelProvider([&](int user_id, core::DetectorVersion) {
        ++loads;
        if (user_id % 100 == 99) {  // 1% bad artefacts
          return std::shared_ptr<const core::UserModel>{};
        }
        auto m = std::make_shared<core::UserModel>();
        m->user_id = user_id;
        return std::shared_ptr<const core::UserModel>(std::move(m));
      }),
      /*capacity=*/512);
  std::vector<int> ids(1000);
  std::iota(ids.begin(), ids.end(), 0);
  const std::size_t loaded =
      registry.warm_load(ids, core::DetectorVersion::kOriginal);
  EXPECT_EQ(loaded, 990u);
  EXPECT_EQ(registry.resident(), 512u) << "capacity bounds residency";
  // Ascending warm-load leaves the tail resident: the last ids hit.
  const auto before = registry.hits();
  ASSERT_NE(registry.try_acquire(998, core::DetectorVersion::kOriginal).model,
            nullptr);
  EXPECT_EQ(registry.hits(), before + 1);
  EXPECT_EQ(loads.load(), 1000) << "one provider call per id";
}

TEST(ModelRegistry, WarmLoadTierRequiresTieredProvider) {
  ModelRegistry registry(
      [](int) { return std::make_shared<const core::UserModel>(); }, 4);
  const std::vector<int> ids = {1, 2, 3};
  EXPECT_EQ(registry.warm_load(ids, core::DetectorVersion::kOriginal), 0u);
  EXPECT_EQ(registry.warm_load(ids), 3u) << "default tier works untiered";
}

// 10k-user cohort scale: bulk warm-load, then LRU churn from concurrent
// readers mixing hits (resident tail) and misses (evicted head) while a
// writer thread keeps warm-loading — exercises eviction under contention.
TEST(ModelRegistry, TenThousandUserChurnUnderConcurrentAccess) {
  constexpr int kUsers = 10000;
  constexpr std::size_t kCapacity = 2048;
  std::atomic<int> loads{0};
  ModelRegistry registry(
      TieredModelProvider([&](int user_id, core::DetectorVersion) {
        ++loads;
        auto m = std::make_shared<core::UserModel>();
        m->user_id = user_id;
        return std::shared_ptr<const core::UserModel>(std::move(m));
      }),
      kCapacity);

  std::vector<int> ids(kUsers);
  std::iota(ids.begin(), ids.end(), 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(registry.warm_load(ids, core::DetectorVersion::kReduced),
            static_cast<std::size_t>(kUsers));
  const auto warm_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_EQ(registry.resident(), kCapacity);
  EXPECT_LT(warm_ms, 5000) << "bulk warm-load must stay cheap";

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acquired{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::uniform_int_distribution<int> pick(0, kUsers - 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto lease =
            registry.try_acquire(pick(rng), core::DetectorVersion::kReduced);
        ASSERT_NE(lease.model, nullptr);
        ++acquired;
      }
    });
  }
  std::thread warmer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.warm_load(std::span(ids).subspan(0, 256),
                         core::DetectorVersion::kReduced);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& r : readers) r.join();
  warmer.join();

  EXPECT_GT(acquired.load(), 0u);
  EXPECT_EQ(registry.resident(), kCapacity) << "LRU bound holds under churn";
  EXPECT_GT(registry.evictions(), 0u);
  EXPECT_EQ(registry.open_breakers(), 0u);
}

TEST(ModelRegistry, LookupHitPathDoesNotAllocate) {
  ModelRegistry registry(
      TieredModelProvider([&](int user_id, core::DetectorVersion) {
        auto m = std::make_shared<core::UserModel>();
        m->user_id = user_id;
        return std::shared_ptr<const core::UserModel>(std::move(m));
      }),
      64);
  // Warm every key this test touches (including the breaker map entries).
  for (int id = 0; id < 32; ++id) {
    ASSERT_NE(registry.try_acquire(id, core::DetectorVersion::kReduced).model,
              nullptr);
  }
  sift::testing::AllocGuard guard;
  for (int round = 0; round < 100; ++round) {
    for (int id = 0; id < 32; ++id) {
      const auto lease =
          registry.try_acquire(id, core::DetectorVersion::kReduced);
      ASSERT_NE(lease.model, nullptr);
    }
  }
  EXPECT_EQ(guard.count(), 0u)
      << "a cache hit must not allocate (LRU splice + shared_ptr copy only)";
}

// --- session table ----------------------------------------------------------

TEST(SessionTable, ShardAssignmentIsStableAndInRange) {
  ModelRegistry registry(
      [](int) { return std::make_shared<const core::UserModel>(); }, 4);
  SessionTable table(8, registry, wiot::BaseStation::Config{});
  for (int user = 0; user < 1000; ++user) {
    const std::size_t shard = table.shard_of(user);
    EXPECT_LT(shard, table.shard_count());
    EXPECT_EQ(shard, table.shard_of(user)) << "stable assignment";
  }
  EXPECT_THROW(SessionTable(0, registry, wiot::BaseStation::Config{}),
               std::invalid_argument);
}

TEST(SessionTable, SessionsAreCreatedOncePerUser) {
  std::atomic<int> loads{0};
  ModelRegistry registry(
      [&](int) {
        ++loads;
        return std::make_shared<const core::UserModel>();
      },
      8);
  SessionTable table(4, registry, wiot::BaseStation::Config{});
  for (int round = 0; round < 3; ++round) {
    for (int user = 0; user < 5; ++user) {
      table.with_session(table.shard_of(user), user, [](Session&) {});
    }
  }
  EXPECT_EQ(table.active_sessions(), 5u);
  EXPECT_EQ(table.sessions_created(), 5u);
  EXPECT_EQ(loads.load(), 5);
  std::size_t visited = 0;
  table.for_each([&](int, const Session&) { ++visited; });
  EXPECT_EQ(visited, 5u);
}

// --- replay fixture: parallel start-up --------------------------------------

std::string model_bytes(const core::UserModel& model) {
  std::ostringstream os;
  io::write_user_model(os, model);
  return os.str();
}

// ReplayFixture synthesises and trains one user per pool worker. Every
// model must match, byte for byte, what train_user_model makes on the
// calling thread from serially synthesised records, and a tiered fixture
// shares one Original model between its default and tiered providers.
TEST(ReplayFixtureStartup, ModelsMatchSerialTrainingByteForByte) {
  constexpr core::DetectorVersion kTiers[] = {
      core::DetectorVersion::kOriginal, core::DetectorVersion::kSimplified,
      core::DetectorVersion::kReduced};
  for (const bool all_tiers : {false, true}) {
    ReplayConfig config;
    config.sessions = 2;
    config.seconds = 3.0;
    config.distinct_users = 3;
    config.train_seconds = 30.0;
    config.seed = 99;
    config.train_all_tiers = all_tiers;
    const ReplayFixture fixture = ReplayFixture::build(config);

    std::vector<physio::Record> training;
    for (const auto& user : physio::synthetic_cohort(3, config.seed)) {
      training.push_back(physio::generate_record(user, config.train_seconds));
    }
    const auto provider = fixture.provider();
    for (std::size_t k = 0; k < training.size(); ++k) {
      std::vector<physio::Record> donors;
      for (std::size_t j = 0; j < training.size(); ++j) {
        if (j != k) donors.push_back(training[j]);
      }
      core::SiftConfig sift;
      const int user = static_cast<int>(k);
      EXPECT_EQ(model_bytes(*provider(user)),
                model_bytes(core::train_user_model(training[k], donors, sift)))
          << "user " << k;
      if (!all_tiers) continue;
      const auto tiered = fixture.provider_tiered();
      // The default model is the Original tier's entry, trained once.
      EXPECT_EQ(provider(user),
                tiered(user, core::DetectorVersion::kOriginal))
          << "user " << k;
      for (const auto v : kTiers) {
        sift.version = v;
        EXPECT_EQ(model_bytes(*tiered(user, v)),
                  model_bytes(core::train_user_model(training[k], donors, sift)))
            << "user " << k << ", tier " << core::to_string(v);
      }
    }
  }
}

// build_session_streams on one core (the pool's width is 1, so every
// session is built on the caller in order) and on every usable core must
// give the same packets, bit for bit.
TEST(ReplayFixtureStartup, SessionStreamsMatchOneCoreBuild) {
  ReplayConfig config;
  config.sessions = 9;
  config.seconds = 6.0;
  config.distinct_users = 3;
  config.seed = 5;

  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const auto serial = build_session_streams(config);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  const auto parallel = build_session_streams(config);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    ASSERT_EQ(parallel[s].size(), serial[s].size()) << "session " << s;
    for (std::size_t p = 0; p < serial[s].size(); ++p) {
      const wiot::Packet& a = parallel[s][p];
      const wiot::Packet& b = serial[s][p];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_EQ(a.samples, b.samples);  // vector ==: bitwise for non-NaN
      EXPECT_EQ(a.peaks, b.peaks);
    }
  }
}

// --- engine vs single-threaded reference ------------------------------------

class FleetEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ReplayConfig config;
    config.sessions = 64;
    config.seconds = 9.0;  // 3 windows per session
    config.distinct_users = 3;
    config.train_seconds = 60.0;
    fixture_ = new ReplayFixture(ReplayFixture::build(config));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  static ReplayFixture* fixture_;
};

ReplayFixture* FleetEngineTest::fixture_ = nullptr;

// The ISSUE's stress gate: ≥64 sessions fed from ≥4 producer threads must
// produce, per user, exactly the verdicts of a single-threaded BaseStation
// run — sharding gives per-user FIFO, the block policy loses nothing.
TEST_F(FleetEngineTest, StressMatchesSingleThreadedReference) {
  FleetConfig config;
  config.workers = 4;
  config.shards = 8;
  config.queue_capacity = 64;
  config.backpressure = BackpressurePolicy::kBlock;
  FleetEngine engine(fixture_->provider(), config);
  replay_through(engine, *fixture_, /*producers=*/4);

  const auto reference =
      single_thread_reference(*fixture_, config.station);

  std::unordered_map<int, const Session*> by_user;
  engine.sessions().for_each(
      [&](int user, const Session& s) { by_user[user] = &s; });
  ASSERT_EQ(by_user.size(), fixture_->sessions());

  std::uint64_t total_windows = 0;
  for (std::size_t s = 0; s < fixture_->sessions(); ++s) {
    const auto it = by_user.find(static_cast<int>(s));
    ASSERT_NE(it, by_user.end()) << "missing session " << s;
    const auto& got = it->second->stats();
    const auto& want = reference[s];
    EXPECT_EQ(got.windows_classified, want.windows_classified)
        << "user " << s;
    EXPECT_EQ(got.alerts, want.alerts) << "user " << s;
    EXPECT_EQ(got.packets_received, want.packets_received) << "user " << s;
    EXPECT_EQ(got.overflow_dropped, 0u) << "user " << s;
    total_windows += got.windows_classified;
  }
  EXPECT_EQ(engine.windows_classified(), total_windows);
  EXPECT_EQ(engine.metrics().counter("fleet.queue_dropped").value(), 0u)
      << "block policy never sheds";
}

// The worker pops its rings in chunks of up to kDrainChunk envelopes. A
// one-envelope ring (rounded up to two slots) keeps every pop near-single,
// a 64-envelope ring lets full chunks form; batching must never change the
// per-user verdict stream.
TEST_F(FleetEngineTest, BatchedExecutionMatchesUnbatched) {
  const auto reference = single_thread_reference(*fixture_, {});
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{64}}) {
    FleetConfig config;
    config.workers = 4;
    config.shards = 8;
    config.queue_capacity = capacity;
    FleetEngine engine(fixture_->provider(), config);
    replay_through(engine, *fixture_, /*producers=*/4);

    std::unordered_map<int, const Session*> by_user;
    engine.sessions().for_each(
        [&](int user, const Session& s) { by_user[user] = &s; });
    ASSERT_EQ(by_user.size(), fixture_->sessions());
    std::uint64_t total_windows = 0;
    for (std::size_t s = 0; s < fixture_->sessions(); ++s) {
      const auto it = by_user.find(static_cast<int>(s));
      ASSERT_NE(it, by_user.end());
      const auto& got = it->second->stats();
      const auto& want = reference[s];
      EXPECT_EQ(got.windows_classified, want.windows_classified)
          << "user " << s << " capacity " << capacity;
      EXPECT_EQ(got.alerts, want.alerts)
          << "user " << s << " capacity " << capacity;
      EXPECT_EQ(got.packets_received, want.packets_received)
          << "user " << s << " capacity " << capacity;
      total_windows += got.windows_classified;
    }
    EXPECT_EQ(engine.windows_classified(), total_windows);
  }
}

TEST_F(FleetEngineTest, VerdictsAreBitIdenticalToReference) {
  FleetConfig config;
  config.workers = 4;
  config.shards = 8;
  FleetEngine engine(fixture_->provider(), config);
  replay_through(engine, *fixture_, /*producers=*/4);

  auto provider = fixture_->provider();
  std::uint64_t total_windows = 0;
  engine.sessions().for_each([&](int user, const Session& session) {
    wiot::BaseStation reference(core::Detector(provider(user)),
                                config.station);
    for (const auto& p :
         fixture_->session_packets(static_cast<std::size_t>(user))) {
      reference.receive(p);
    }
    const auto& got = session.station().reports();
    const auto& want = reference.reports();
    ASSERT_EQ(got.size(), want.size()) << "user " << user;
    for (std::size_t w = 0; w < want.size(); ++w) {
      EXPECT_EQ(got[w].altered, want[w].altered) << "user " << user;
      EXPECT_DOUBLE_EQ(got[w].decision_value, want[w].decision_value)
          << "user " << user << " window " << w;
    }
    EXPECT_EQ(session.stats().packets_received,
              reference.stats().packets_received)
        << "user " << user;
    total_windows += session.stats().windows_classified;
  });
  EXPECT_EQ(engine.sessions().active_sessions(), fixture_->sessions());
  EXPECT_EQ(engine.windows_classified(), total_windows);
}

TEST_F(FleetEngineTest, DropOldestConservesEveryEnvelope) {
  FleetConfig config;
  config.workers = 1;
  config.shards = 2;
  config.queue_capacity = 4;  // tiny: bursts must shed
  config.backpressure = BackpressurePolicy::kDropOldest;
  FleetEngine engine(fixture_->provider(), config);
  replay_through(engine, *fixture_, /*producers=*/4);

  auto& m = engine.metrics();
  const auto ingested = m.counter("fleet.ingest_packets").value();
  const auto dropped = m.counter("fleet.queue_dropped").value();
  const auto processed = m.histogram("fleet.e2e_latency").count();
  EXPECT_EQ(ingested, fixture_->total_packets())
      << "drop-oldest always accepts the fresh packet";
  EXPECT_EQ(processed + dropped, ingested)
      << "every envelope is either processed or accounted as shed";
}

TEST_F(FleetEngineTest, MetricsJsonReportsTheOperationalSurface) {
  FleetConfig config;
  config.workers = 2;
  config.shards = 4;
  FleetEngine engine(fixture_->provider(), config);
  replay_through(engine, *fixture_, /*producers=*/2);

  const std::string json = engine.metrics_json();
  for (const char* key :
       {"fleet.ingest_packets", "fleet.queue_dropped", "fleet.queue_depth",
        "fleet.windows_classified", "fleet.alerts", "fleet.sessions_active",
        "fleet.models_resident", "fleet.detect_latency.p50_us",
        "fleet.detect_latency.p99_us", "fleet.e2e_latency.p99_us",
        "fleet.station.overflow_dropped",
        // Per-core surface: worker 0 always exists regardless of how the
        // host clamps the requested count.
        "fleet.workers", "fleet.worker.0.packets", "fleet.worker.0.batches",
        "fleet.worker.0.ring_depth", "fleet.worker.0.batch_size.p50"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(engine.metrics().gauge("fleet.queue_depth").value(), 0)
      << "drained engine has empty queues";
  std::uint64_t per_worker_packets = 0;
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    per_worker_packets += engine.metrics()
                              .counter("fleet.worker." + std::to_string(w) +
                                       ".packets")
                              .value();
  }
  EXPECT_EQ(per_worker_packets,
            engine.metrics().counter("fleet.ingest_packets").value() -
                engine.metrics().counter("fleet.queue_dropped").value())
      << "every accepted envelope is charged to exactly one core";
}

TEST_F(FleetEngineTest, WorkerCountResolvesPerCoreAndClamps) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  {
    FleetConfig config;
    config.workers = 0;  // per-core default
    config.shards = 64;
    FleetEngine engine(fixture_->provider(), config);
    EXPECT_EQ(engine.workers(), std::min<std::size_t>(hw, 64));
    engine.drain();
  }
  {
    FleetConfig config;
    config.workers = 64;  // more than any sane host: clamp, don't oversubscribe
    config.shards = 64;
    FleetEngine engine(fixture_->provider(), config);
    EXPECT_LE(engine.workers(), hw);
    EXPECT_GE(engine.workers(), 1u);
    engine.drain();
  }
  {
    FleetConfig config;
    config.workers = 8;
    config.shards = 2;  // ownership is per shard: never more workers than shards
    FleetEngine engine(fixture_->provider(), config);
    EXPECT_LE(engine.workers(), 2u);
    engine.drain();
  }
}

TEST_F(FleetEngineTest, ZeroQueueCapacityIsRejected) {
  FleetConfig config;
  config.queue_capacity = 0;
  EXPECT_THROW(FleetEngine(fixture_->provider(), config),
               std::invalid_argument);
}

// One gap-filled receive() can complete up to max_buffered_windows windows,
// and the engine journals them by reading them back from the report
// history: a shorter history would silently drop verdicts.
TEST_F(FleetEngineTest, ReportHistoryShorterThanBufferBoundIsRejected) {
  FleetConfig config;
  config.workers = 1;
  config.station.max_report_history = 2;
  EXPECT_THROW(FleetEngine(fixture_->provider(), config),
               std::invalid_argument);
  for (const std::size_t ok : {std::size_t{0}, std::size_t{16}}) {
    config.station.max_report_history = ok;
    EXPECT_NO_THROW(FleetEngine(fixture_->provider(), config)) << ok;
  }
}

TEST_F(FleetEngineTest, SessionsPinToOneWorkerForTheEngineLifetime) {
  FleetConfig config;
  config.workers = 0;
  config.shards = 16;
  FleetEngine engine(fixture_->provider(), config);
  for (int user = 0; user < 100; ++user) {
    const std::size_t first = engine.worker_of(user);
    EXPECT_LT(first, engine.workers());
    EXPECT_EQ(engine.worker_of(user), first) << "stable for user " << user;
  }
  engine.drain();
}

TEST_F(FleetEngineTest, IngestAfterDrainIsRejectedAndCounted) {
  FleetConfig config;
  config.workers = 1;
  config.shards = 1;
  FleetEngine engine(fixture_->provider(), config);
  EXPECT_TRUE(engine.ingest(0, fixture_->session_packets(0)[0]));
  engine.drain();
  EXPECT_FALSE(engine.ingest(0, fixture_->session_packets(0)[0]));
  EXPECT_EQ(engine.metrics().counter("fleet.ingest_rejected").value(), 1u);
  engine.drain();  // idempotent
}

// --- memory discipline ------------------------------------------------------

// Splits a record into both channels' packet streams, interleaved in
// arrival order. @p seq_base offsets the sequence numbers so the same
// window content can be replayed as a continuation of an earlier stream.
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

// The worker-loop body — Session::receive, i.e. packet reassembly plus the
// per-window samples -> verdict pipeline — must be allocation-free in
// steady state: with thousands of sessions per process, per-window mallocs
// are both the dominant cost and a lock-contention source across workers.
// The warm-up pass replays the full packet stream once so every scratch
// buffer reaches its high-water capacity; the measured pass replays the
// same windows as a sequence-number continuation.
TEST(SessionMemory, SteadyStateReceiveIsAllocationFree) {
  const auto cohort = physio::synthetic_cohort(3, 7);
  const auto training = physio::generate_cohort_records(cohort, 60.0);
  core::SiftConfig sift_config;
  auto model = std::make_shared<const core::UserModel>(core::train_user_model(
      training[0], std::span(training).subspan(1), sift_config));

  wiot::BaseStation::Config station;
  station.max_report_history = 8;  // bounded retention: report buffer
                                   // capacity plateaus during warm-up
  Session session(std::move(model), station);

  const auto rec =
      physio::generate_record(cohort[0], 60.0, physio::kDefaultRateHz, 2);
  const auto n_packets =
      static_cast<std::uint32_t>(rec.ecg.size() / station.samples_per_packet);
  const auto warm = packetize(rec, station.samples_per_packet, 0);
  const auto steady = packetize(rec, station.samples_per_packet, n_packets);

  for (const auto& p : warm) session.receive(p);
  const auto windows_after_warmup = session.stats().windows_classified;
  ASSERT_GE(windows_after_warmup, 10u) << "warm-up must classify windows";

  sift::testing::AllocGuard guard;
  for (const auto& p : steady) session.receive(p);
  EXPECT_EQ(guard.count(), 0u)
      << "steady-state Session::receive must not heap-allocate";
  EXPECT_EQ(session.stats().windows_classified, 2 * windows_after_warmup);
  EXPECT_EQ(session.station().reports().size(), station.max_report_history)
      << "retention bound holds";
}

// Heap bytes in use, the way perfbench's layer walk measures a session.
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// A station's memory follows what it holds: interleaved channels never
// hold more than one window each, so a fed station costs about two
// windows of samples (2 x 1080 doubles, ~17 KB) no matter how large the
// 16-window overflow bound is.
TEST(SessionMemory, StationHoldsOneWindowPerChannel) {
  const auto cohort = physio::synthetic_cohort(1, 7);
  const auto rec =
      physio::generate_record(cohort[0], 60.0, physio::kDefaultRateHz, 2);
  wiot::BaseStation::Config config;
  config.max_report_history = 8;
  const auto packets = packetize(rec, config.samples_per_packet, 0);

  constexpr std::size_t kStations = 64;
  std::vector<wiot::BaseStation> stations;
  stations.reserve(kStations);
  const std::size_t before = heap_in_use();
  for (std::size_t i = 0; i < kStations; ++i) {
    wiot::BaseStation& station = stations.emplace_back(config);
    for (const auto& p : packets) station.receive(p);
  }
  const double per_station_kb =
      static_cast<double>(heap_in_use() - before) / kStations / 1024.0;
  EXPECT_LE(per_station_kb, 24.0);
  EXPECT_EQ(stations.back().stats().windows_classified,
            rec.ecg.size() / config.window_samples);
  EXPECT_EQ(stations.back().stats().overflow_dropped, 0u);
}

// A scoring station costs no more than a bare one: it classifies through
// its thread's arena (core::thread_scratch), so the ~27 KB of portrait,
// count matrix and peak buffers is paid once per thread, not per station.
TEST(SessionMemory, ScoredStationHoldsNoArena) {
  const auto cohort = physio::synthetic_cohort(3, 7);
  const auto training = physio::generate_cohort_records(cohort, 60.0);
  const auto model =
      std::make_shared<const core::UserModel>(core::train_user_model(
          training[0], std::span(training).subspan(1), core::SiftConfig{}));
  const auto rec =
      physio::generate_record(cohort[0], 60.0, physio::kDefaultRateHz, 2);
  wiot::BaseStation::Config config;
  config.max_report_history = 16;
  const auto packets = packetize(rec, config.samples_per_packet, 0);

  constexpr std::size_t kStations = 64;
  std::vector<wiot::BaseStation> stations;
  stations.reserve(kStations);
  const std::size_t before = heap_in_use();
  for (std::size_t i = 0; i < kStations; ++i) {
    wiot::BaseStation& station =
        stations.emplace_back(core::Detector(model), config);
    for (const auto& p : packets) station.receive(p);
  }
  const double per_station_kb =
      static_cast<double>(heap_in_use() - before) / kStations / 1024.0;
  EXPECT_LE(per_station_kb, 24.0);
  EXPECT_EQ(stations.back().stats().windows_classified,
            rec.ecg.size() / config.window_samples);
  EXPECT_EQ(stations.back().stats().unscored_windows, 0u);
}

// The LRU registry under engine traffic: 64 users share 3 artefacts, so a
// capacity-3 cache must serve all sessions with exactly 3 loads... per
// *distinct model id*. User ids are the cache key, so capacity below the
// session count forces evictions — which is safe, because sessions keep
// their shared_ptr.
TEST_F(FleetEngineTest, ModelCacheBoundsResidencyUnderEviction) {
  FleetConfig config;
  config.workers = 2;
  config.shards = 4;
  config.model_cache_capacity = 8;  // far below 64 sessions
  FleetEngine engine(fixture_->provider(), config);
  replay_through(engine, *fixture_, /*producers=*/2);

  EXPECT_LE(engine.models().resident(), 8u);
  EXPECT_EQ(engine.models().misses(), fixture_->sessions())
      << "one load per user id";
  EXPECT_EQ(engine.models().evictions(), fixture_->sessions() - 8);
  EXPECT_EQ(engine.windows_classified(), 64u * 3u)
      << "eviction never interrupts a live session";
}

}  // namespace
}  // namespace sift::fleet
