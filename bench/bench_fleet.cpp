// Fleet engine snapshots for CI's bench-smoke gates. A plain CLI:
//
//   bench_fleet --json <path>     in-process replay of 64 sessions through a
//                                 4-worker engine: windows/sec, detect
//                                 p50/p99 from the engine's own histogram,
//                                 the steady-state allocations-per-window of
//                                 one session, and the resilience counters
//   bench_fleet --scaling <path>  windows/sec and detect p99 per worker
//                                 count, 1 -> hardware_concurrency, pinned
//
// Both flags may be given together. tools/bench_check.py gates the first
// against BENCH_baseline.json's fleet floor and the second for
// monotonicity. The wire, the write-ahead journal and the detection stages
// are measured end to end, with spread across interleaved runs, by
// perfbench (`perfbench/run.py`, workloads fleet-inproc and gateway-paced).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_guard.hpp"
#include "fleet/engine.hpp"
#include "fleet/replay.hpp"
#include "fleet/session.hpp"

namespace {

using namespace sift;

constexpr std::size_t kSessions = 64;

const fleet::ReplayFixture& shared_fixture() {
  // Trained models + pre-synthesised packet streams, built once: training
  // inside a timed replay would swamp the measurement.
  static const fleet::ReplayFixture fixture = [] {
    fleet::ReplayConfig config;
    config.sessions = kSessions;
    config.seconds = 9.0;  // 3 windows per session at w = 3 s
    config.distinct_users = 4;
    config.train_seconds = 60.0;
    return fleet::ReplayFixture::build(config);
  }();
  return fixture;
}

// --- machine-readable snapshot (--json <path>) -----------------------------------

/// Steady-state allocations per classified window for one session: replay
/// session 0's packet stream once to warm the scratch arena and reassembly
/// buffers, then replay the identical content again (sequence numbers
/// shifted past the warm-up stream so the dedup window accepts it) while
/// counting this thread's heap allocations.
double session_allocs_per_window(const fleet::ReplayFixture& fixture) {
  wiot::BaseStation::Config station;
  // Bounded retention is required for 0 allocs/window; the cap must also
  // engage during the warm-up pass (the fixture stream is only 3 windows
  // long), otherwise the report vector is still doubling while we measure.
  station.max_report_history = 2;
  fleet::Session session(fixture.provider()(0), station);
  const auto& stream = fixture.session_packets(0);

  std::uint32_t next_seq[2] = {0, 0};
  for (const auto& p : stream) {
    auto& n = next_seq[p.kind == wiot::ChannelKind::kEcg ? 0 : 1];
    n = std::max(n, p.seq + 1);
    session.receive(p);
  }
  const std::size_t warm_windows = session.stats().windows_classified;

  std::vector<wiot::Packet> shifted(stream.begin(), stream.end());
  for (auto& p : shifted) {
    p.seq += next_seq[p.kind == wiot::ChannelKind::kEcg ? 0 : 1];
  }
  sift::testing::AllocGuard guard;
  for (const auto& p : shifted) session.receive(p);
  const std::size_t steady_windows =
      session.stats().windows_classified - warm_windows;
  if (steady_windows == 0) return -1.0;  // signals a broken replay
  return static_cast<double>(guard.count()) /
         static_cast<double>(steady_windows);
}

int write_json_snapshot(const std::string& path) {
  constexpr std::size_t kWorkers = 4;
  const auto& fixture = shared_fixture();

  fleet::FleetConfig config;
  config.workers = kWorkers;
  config.shards = 8;
  config.queue_capacity = 1024;
  config.backpressure = fleet::BackpressurePolicy::kBlock;
  fleet::FleetEngine engine(fixture.provider(), config);
  const auto result = fleet::replay_through(engine, fixture, /*producers=*/1);
  const double elapsed_s =
      std::chrono::duration<double>(result.elapsed).count();
  const auto& latency = engine.metrics().histogram("fleet.detect_latency");
  const double windows_per_sec =
      static_cast<double>(result.windows_classified) / elapsed_s;
  const double allocs_per_window = session_allocs_per_window(fixture);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fleet: cannot open %s\n", path.c_str());
    return 1;
  }
  // Resilience counters ride along so regression tracking also notices a
  // bench run that started rejecting or quarantining (all zero on a clean
  // replay).
  auto count = [&engine](const char* name) {
    return static_cast<unsigned long long>(
        engine.metrics().counter(name).value());
  };
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fleet_replay\",\n"
               "  \"workers\": %zu,\n"
               "  \"sessions\": %zu,\n"
               "  \"windows\": %llu,\n"
               "  \"windows_per_sec\": %.1f,\n"
               "  \"detect_p50_us\": %.3f,\n"
               "  \"detect_p99_us\": %.3f,\n"
               "  \"session_allocs_per_window\": %.4f,\n"
               "  \"packets_rejected\": %llu,\n"
               "  \"sessions_quarantined\": %llu,\n"
               "  \"worker_faults\": %llu,\n"
               "  \"tier_downgrades\": %llu,\n"
               "  \"tier_upgrades\": %llu,\n"
               "  \"breaker_open\": %llu,\n"
               "  \"provider_retries\": %llu\n"
               "}\n",
               kWorkers, kSessions,
               static_cast<unsigned long long>(result.windows_classified),
               windows_per_sec, latency.quantile_us(0.5),
               latency.quantile_us(0.99), allocs_per_window,
               count("fleet.packets_rejected"),
               count("fleet.sessions_quarantined"),
               count("fleet.worker_faults"), count("fleet.tier_downgrades"),
               count("fleet.tier_upgrades"),
               static_cast<unsigned long long>(engine.models().open_breakers()),
               static_cast<unsigned long long>(
                   engine.models().provider_retries()));
  std::fclose(f);
  std::printf("fleet: %.0f windows/s (%zu workers), detect p50 %.2f us, "
              "p99 %.2f us, %.4f allocs/window -> %s\n",
              windows_per_sec, kWorkers, latency.quantile_us(0.5),
              latency.quantile_us(0.99), allocs_per_window, path.c_str());
  return 0;
}

// --- core-scaling snapshot (--scaling <path>) ------------------------------------

// Sweeps worker count 1 → hardware_concurrency (doubling, plus the top)
// with cores pinned, and records windows/sec + detect p99 per point. Each
// point is the best of several replays — the fixture is small, so a single
// replay is scheduler-noise-dominated and the *capacity* at that core
// count is what the scaling claim is about. tools/bench_check.py gates the
// curve: each point must not fall below the previous one beyond tolerance
// (on a 1-core host the sweep is a single point and trivially passes).
int write_scaling_snapshot(const std::string& path) {
  constexpr int kReps = 5;
  const auto& fixture = shared_fixture();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::vector<std::size_t> sweep;
  for (std::size_t w = 1; w < hw; w *= 2) sweep.push_back(w);
  sweep.push_back(hw);

  struct Point {
    std::size_t workers = 0;
    double windows_per_sec = 0.0;
    double detect_p99_us = 0.0;
  };
  std::vector<Point> points;
  points.reserve(sweep.size());
  for (const std::size_t w : sweep) {
    Point pt;
    pt.workers = w;
    for (int rep = 0; rep < kReps; ++rep) {
      fleet::FleetConfig config;
      config.workers = w;
      config.shards = std::max<std::size_t>(2 * w, 8);
      config.queue_capacity = 1024;
      config.backpressure = fleet::BackpressurePolicy::kBlock;
      config.pin_cores = true;
      fleet::FleetEngine engine(fixture.provider(), config);
      const auto result =
          fleet::replay_through(engine, fixture, /*producers=*/1);
      const double elapsed_s =
          std::chrono::duration<double>(result.elapsed).count();
      const double wps =
          elapsed_s > 0.0
              ? static_cast<double>(result.windows_classified) / elapsed_s
              : 0.0;
      if (wps > pt.windows_per_sec) {
        pt.windows_per_sec = wps;
        pt.detect_p99_us =
            engine.metrics().histogram("fleet.detect_latency")
                .quantile_us(0.99);
      }
    }
    points.push_back(pt);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fleet: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fleet_scaling\",\n"
               "  \"sessions\": %zu,\n"
               "  \"reps_per_point\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"points\": [\n",
               kSessions, kReps, hw);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f,
                 "    {\"workers\": %zu, \"windows_per_sec\": %.1f, "
                 "\"detect_p99_us\": %.3f}%s\n",
                 points[i].workers, points[i].windows_per_sec,
                 points[i].detect_p99_us,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  for (const auto& pt : points) {
    std::printf("scaling: %zu worker%s -> %.0f windows/s (p99 %.2f us)\n",
                pt.workers, pt.workers == 1 ? "" : "s", pt.windows_per_sec,
                pt.detect_p99_us);
  }
  std::printf("scaling snapshot (%zu points, %zu cores) -> %s\n",
              points.size(), hw, path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string scaling_path;
  bool ok = argc > 1;
  for (int i = 1; ok && i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--scaling" && i + 1 < argc) {
      scaling_path = argv[++i];
    } else {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "usage: bench_fleet [--json PATH] [--scaling PATH]\n");
    return 2;
  }
  if (!scaling_path.empty()) {
    const int rc = write_scaling_snapshot(scaling_path);
    if (rc != 0) return rc;
  }
  return json_path.empty() ? 0 : write_json_snapshot(json_path);
}
