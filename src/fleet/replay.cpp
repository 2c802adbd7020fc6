#include "fleet/replay.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fleet/faults.hpp"
#include "parallel/parallel_for.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"
#include "wiot/sensor_node.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace sift::fleet {
namespace {

// Start-up runs on parallel::parallel_for's threads, and glibc gives each
// thread its own malloc arena; memory freed there stays resident. Called
// once the start-up scratch (training records, feature sets, solver
// scratch) is freed, this hands those pages back, so a gateway serves at
// the resident size a serial start-up left it at. It releases whole free
// pages only, so the workers' arenas are also kept small: training reads
// its donors in place rather than copying them (a 4-user start-up leaves
// ~130 KB in a worker arena, against 2.8 MB with copies).
void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

std::vector<std::vector<wiot::Packet>> build_session_streams(
    const ReplayConfig& config) {
  const std::size_t cohort_n = std::max<std::size_t>(2, config.distinct_users);
  const auto cohort = physio::synthetic_cohort(cohort_n, config.seed);
  std::vector<std::vector<wiot::Packet>> streams(config.sessions);
  parallel::parallel_for(config.sessions, [&](std::size_t s) {
    const auto& profile = cohort[s % config.distinct_users];
    // Distinct salt per session: same physiology, fresh trace.
    const auto record = physio::generate_record(
        profile, config.seconds, physio::kDefaultRateHz,
        /*salt=*/1000 + s);
    wiot::SensorNode ecg(wiot::ChannelKind::kEcg, record,
                         config.samples_per_packet);
    wiot::SensorNode abp(wiot::ChannelKind::kAbp, record,
                         config.samples_per_packet);
    std::vector<wiot::Packet>& stream = streams[s];
    for (;;) {
      auto e = ecg.poll();
      auto a = abp.poll();
      if (!e && !a) break;
      if (e) stream.push_back(std::move(*e));
      if (a) stream.push_back(std::move(*a));
    }
  });
  trim_heap();
  return streams;
}

ReplayFixture ReplayFixture::build(const ReplayConfig& config) {
  if (config.sessions == 0 || config.distinct_users == 0) {
    throw std::invalid_argument(
        "ReplayFixture: sessions and distinct_users must be positive");
  }
  ReplayFixture fixture;
  fixture.config_ = config;

  // Need at least 2 profiles so every wearer has a donor to train against.
  const std::size_t cohort_n = std::max<std::size_t>(2, config.distinct_users);
  const auto cohort = physio::synthetic_cohort(cohort_n, config.seed);
  auto training = physio::generate_cohort_records(cohort, config.train_seconds);

  // One user per worker into slot k: its default model (SiftConfig{}, the
  // Original tier), or with train_all_tiers every tier from one walk. Each
  // model depends only on the records, so the slots hold what a serial
  // loop would.
  std::vector<std::vector<core::UserModel>> trained(config.distinct_users);
  parallel::parallel_for(config.distinct_users, [&](std::size_t k) {
    std::vector<const physio::Record*> donors;
    for (std::size_t j = 0; j < training.size(); ++j) {
      if (j != k) donors.push_back(&training[j]);
    }
    const core::SiftConfig sift_config;
    if (config.train_all_tiers) {
      trained[k] = core::train_user_models(training[k], donors, sift_config);
    } else {
      trained[k].push_back(
          core::train_user_model(training[k], donors, sift_config));
    }
  });

  // Copy every model here, on the calling thread, so the long-lived
  // weights sit in its heap and the workers' heaps hold only freed
  // training scratch, which build_session_streams' trim_heap() hands back.
  // trained[k] starts with the Original model either way (kTiers is in
  // tier_rank order), which is the default model.
  static_assert(core::kTiers[0] == core::DetectorVersion::kOriginal);
  if (config.train_all_tiers) {
    fixture.tiered_models_.resize(core::kTiers.size());
  }
  for (std::size_t k = 0; k < config.distinct_users; ++k) {
    for (std::size_t t = 0; t < trained[k].size(); ++t) {
      auto model = std::make_shared<const core::UserModel>(trained[k][t]);
      if (t == 0) fixture.models_.push_back(model);
      if (config.train_all_tiers) {
        fixture.tiered_models_[t].push_back(std::move(model));
      }
    }
  }
  trained.clear();
  training.clear();

  fixture.packets_ = build_session_streams(config);
  for (const auto& stream : fixture.packets_) {
    fixture.total_packets_ += stream.size();
  }
  return fixture;
}

ReplayFixture ReplayFixture::build_models_only(ReplayConfig config) {
  // Reuse build()'s training path with the cheapest possible stream
  // synthesis, then drop the streams: one session of one packet's worth of
  // trace keeps generate_record out of the budget entirely.
  config.sessions = 1;
  config.seconds = 1.0;
  ReplayFixture fixture = build(config);
  fixture.packets_.clear();
  fixture.total_packets_ = 0;
  return fixture;
}

ModelProvider ReplayFixture::provider() const {
  // Copies the shared_ptr vector, so the provider outlives the fixture.
  auto models = models_;
  return [models](int user_id) {
    const auto idx =
        static_cast<std::size_t>(user_id) % models.size();
    return models[idx];
  };
}

TieredModelProvider ReplayFixture::provider_tiered() const {
  if (tiered_models_.empty()) {
    throw std::logic_error(
        "ReplayFixture: provider_tiered needs config.train_all_tiers");
  }
  auto tiers = tiered_models_;
  return [tiers](int user_id, core::DetectorVersion version) {
    const auto& bank = tiers[static_cast<std::size_t>(core::tier_rank(version))];
    return bank[static_cast<std::size_t>(user_id) % bank.size()];
  };
}

ReplayResult replay_through(
    FleetEngine& engine, const ReplayFixture& fixture, std::size_t producers,
    FaultInjector* injector,
    const std::unordered_map<int, SessionCursors>& cursors) {
  if (producers == 0) producers = 1;
  producers = std::min(producers, fixture.sessions());

  std::atomic<std::uint64_t> offered{0};
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> pool;
    pool.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      pool.emplace_back([&, p] {
        // Time-major feed over this producer's sessions: packet 0 of every
        // owned session, then packet 1, ... — the realistic arrival order
        // for concurrent wearers. Each session's packets are offered by
        // exactly one producer, so per-user FIFO order is preserved.
        std::uint64_t mine = 0;
        bool more = true;
        for (std::size_t step = 0; more; ++step) {
          more = false;
          for (std::size_t s = p; s < fixture.sessions(); s += producers) {
            const auto& stream = fixture.session_packets(s);
            if (step >= stream.size()) continue;
            more = true;
            const wiot::Packet& pristine = stream[step];
            // The skip decision uses the fixture's pristine sequence number
            // (the packet's canonical position); corruption is applied
            // after, on the same (seed, user, seq, kind) schedule as the
            // original run.
            if (const auto it = cursors.find(static_cast<int>(s));
                it != cursors.end()) {
              const std::uint32_t cursor =
                  pristine.kind == wiot::ChannelKind::kEcg ? it->second.ecg
                                                           : it->second.abp;
              if (pristine.seq < cursor) continue;
            }
            wiot::Packet packet = pristine;
            if (injector) {
              injector->corrupt_packet(static_cast<int>(s), packet);
            }
            engine.ingest(static_cast<int>(s), std::move(packet));
            ++mine;
          }
        }
        offered.fetch_add(mine, std::memory_order_relaxed);
      });
    }
  }
  engine.drain();
  const auto end = std::chrono::steady_clock::now();

  ReplayResult result;
  result.elapsed = end - start;
  result.packets_offered = offered.load();
  result.windows_classified = engine.windows_classified();
  return result;
}

std::vector<wiot::BaseStation::Stats> single_thread_reference(
    const ReplayFixture& fixture, const wiot::BaseStation::Config& station) {
  auto provider = fixture.provider();
  std::vector<wiot::BaseStation::Stats> out;
  out.reserve(fixture.sessions());
  for (std::size_t s = 0; s < fixture.sessions(); ++s) {
    wiot::BaseStation reference(
        core::Detector(provider(static_cast<int>(s))), station);
    for (const auto& packet : fixture.session_packets(s)) {
      reference.receive(packet);
    }
    out.push_back(reference.stats());
  }
  return out;
}

}  // namespace sift::fleet
