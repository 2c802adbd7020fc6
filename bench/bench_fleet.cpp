// Fleet engine throughput: aggregate windows/sec as a function of worker
// count and session count.
//
// The fixture (trained models + pre-synthesised packet streams) is built
// once; each benchmark iteration constructs a fresh engine, replays every
// session through it from a single producer thread, and drains. Per-window
// detection work (portrait + features + SVM) dominates the queue handoff,
// so on a multi-core host windows/sec should scale near-linearly with
// workers until the cores run out — the acceptance bar is ≥2× from 1→4
// workers. Run with --benchmark_counters_tabular=true for a compact table.
//
// `bench_fleet --json <path>` instead writes a machine-readable snapshot:
// engine windows/sec with 4 workers, detect-latency p50/p99 from the
// engine's own histogram, and the steady-state allocations-per-window of a
// single session replayed on the measuring thread.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_guard.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/engine.hpp"
#include "fleet/replay.hpp"
#include "fleet/session.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace {

using namespace sift;

const fleet::ReplayFixture& fixture_for(std::size_t sessions) {
  // One fixture per session count, built lazily and cached for the whole
  // benchmark binary (training models inside the timed loop would swamp
  // the measurement).
  static std::map<std::size_t, std::unique_ptr<fleet::ReplayFixture>> cache;
  auto& slot = cache[sessions];
  if (!slot) {
    fleet::ReplayConfig config;
    config.sessions = sessions;
    config.seconds = 9.0;  // 3 windows per session at w = 3 s
    config.distinct_users = 4;
    config.train_seconds = 60.0;
    slot = std::make_unique<fleet::ReplayFixture>(
        fleet::ReplayFixture::build(config));
  }
  return *slot;
}

void BM_FleetWindowsPerSec(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto sessions = static_cast<std::size_t>(state.range(1));
  const auto& fixture = fixture_for(sessions);

  std::uint64_t windows = 0;
  for (auto _ : state) {
    fleet::FleetConfig config;
    config.workers = workers;
    config.shards = std::max<std::size_t>(workers, 8);
    config.queue_capacity = 1024;
    config.backpressure = fleet::BackpressurePolicy::kBlock;
    fleet::FleetEngine engine(fixture.provider(), config);
    const auto result = fleet::replay_through(engine, fixture, /*producers=*/1);
    windows += result.windows_classified;
  }
  state.counters["windows_per_sec"] =
      benchmark::Counter(static_cast<double>(windows),
                         benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["workers"] = static_cast<double>(workers);
  state.SetItemsProcessed(static_cast<std::int64_t>(windows));
}

// workers × sessions sweep: the 1→4 worker column is the scaling claim;
// the session sweep shows multiplexing overhead stays flat.
BENCHMARK(BM_FleetWindowsPerSec)
    ->ArgNames({"workers", "sessions"})
    ->Args({1, 16})
    ->Args({2, 16})
    ->Args({4, 16})
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Scratch durability directory, recreated per use and removed on exit.
struct BenchDir {
  std::string path;
  BenchDir() {
    path = (std::filesystem::temp_directory_path() /
            ("sift_bench_durable_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// Same replay with the write-ahead journal on the verdict path: the delta
// against BM_FleetWindowsPerSec is the price of durability (group commit
// amortizes the fsyncs, so it should be a few percent, not a cliff).
void BM_FleetDurableWindowsPerSec(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto sessions = static_cast<std::size_t>(state.range(1));
  const auto& fixture = fixture_for(sessions);

  std::uint64_t windows = 0;
  for (auto _ : state) {
    BenchDir dir;
    fleet::durable::Durability durability(dir.path);
    fleet::FleetConfig config;
    config.workers = workers;
    config.shards = std::max<std::size_t>(workers, 8);
    config.queue_capacity = 1024;
    config.backpressure = fleet::BackpressurePolicy::kBlock;
    config.durability = &durability;
    fleet::FleetEngine engine(fixture.provider(), config);
    const auto result = fleet::replay_through(engine, fixture, /*producers=*/1);
    durability.checkpoint(engine);
    windows += result.windows_classified;
  }
  state.counters["windows_per_sec"] =
      benchmark::Counter(static_cast<double>(windows),
                         benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["workers"] = static_cast<double>(workers);
  state.SetItemsProcessed(static_cast<std::int64_t>(windows));
}

BENCHMARK(BM_FleetDurableWindowsPerSec)
    ->ArgNames({"workers", "sessions"})
    ->Args({4, 64})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

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
  constexpr std::size_t kSessions = 64;
  const auto& fixture = fixture_for(kSessions);

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

  // Durable run: identical replay with the verdict journal on the hot path
  // and a checkpoint mid-stream + at the end — the overhead figure CI
  // tracks for the durability layer.
  BenchDir durable_dir;
  fleet::durable::Durability durability(durable_dir.path);
  fleet::FleetConfig durable_config = config;
  durable_config.durability = &durability;
  fleet::FleetEngine durable_engine(fixture.provider(), durable_config);
  std::jthread checkpointer([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (stop.stop_requested()) break;
      durability.checkpoint(durable_engine);
    }
  });
  const auto durable_result =
      fleet::replay_through(durable_engine, fixture, /*producers=*/1);
  checkpointer.request_stop();
  checkpointer.join();
  durability.checkpoint(durable_engine);
  const double durable_elapsed_s =
      std::chrono::duration<double>(durable_result.elapsed).count();
  const double durable_windows_per_sec =
      static_cast<double>(durable_result.windows_classified) /
      durable_elapsed_s;
  const double durable_overhead_pct =
      windows_per_sec > 0.0
          ? (1.0 - durable_windows_per_sec / windows_per_sec) * 100.0
          : 0.0;

  // Closed-loop net run: the same fixture streamed over a Unix socket into
  // a served engine (8 connections, greedy send, settle on stats). The
  // delta against the in-process figures is the price of the wire — frame
  // encode/decode, the event loop, and backpressure round-trips.
  BenchDir net_dir;
  fleet::FleetEngine served_engine(fixture.provider(), config);
  net::NetServerConfig server_config;
  server_config.listen = "unix:" + net_dir.path + "/bench.sock";
  net::NetServer server(served_engine, server_config);
  server.start();
  net::DriveConfig drive;
  drive.address = server.address();
  drive.connections = 8;
  std::vector<std::vector<wiot::Packet>> streams;
  streams.reserve(fixture.sessions());
  for (std::size_t s = 0; s < fixture.sessions(); ++s) {
    streams.push_back(fixture.session_packets(s));
  }
  const net::DriveResult net_result = net::drive_load(drive, streams);
  server.stop();
  served_engine.drain();
  const double net_windows_per_sec =
      net_result.total_seconds > 0.0
          ? static_cast<double>(net_result.after.windows_classified -
                                net_result.before.windows_classified) /
                net_result.total_seconds
          : 0.0;
  const double net_packets_per_sec =
      net_result.total_seconds > 0.0
          ? static_cast<double>(net_result.packets_sent) /
                net_result.total_seconds
          : 0.0;
  const double net_mb_per_sec =
      net_result.total_seconds > 0.0
          ? static_cast<double>(
                served_engine.metrics().counter("net.bytes_in").value()) /
                (1.0e6 * net_result.total_seconds)
          : 0.0;
  const auto net_stalls =
      served_engine.metrics().counter("net.backpressure_stalls").value();

  // Same drive through resuming senders on a clean wire: the price of the
  // reconnect-with-resume machinery (per-step flushes, cursor-confirmed
  // completion) relative to the greedy baseline above.
  BenchDir resume_dir;
  fleet::FleetEngine resume_engine(fixture.provider(), config);
  net::NetServerConfig resume_server_config;
  resume_server_config.listen = "unix:" + resume_dir.path + "/resume.sock";
  net::NetServer resume_server(resume_engine, resume_server_config);
  resume_server.start();
  net::DriveConfig resume_drive = drive;
  resume_drive.address = resume_server.address();
  resume_drive.resume = true;
  const net::DriveResult resume_result =
      net::drive_load(resume_drive, streams);
  resume_server.stop();
  resume_engine.drain();
  const double net_resume_packets_per_sec =
      resume_result.total_seconds > 0.0
          ? static_cast<double>(resume_result.packets_sent) /
                resume_result.total_seconds
          : 0.0;

  // And once more with the wire-fault shim compiled in, attached on both
  // sides, but disarmed: this figure regressing against the plain drive
  // means the fault hooks grew a hot-path cost they must not have.
  BenchDir shim_dir;
  fleet::FleetEngine shim_engine(fixture.provider(), config);
  net::FaultyTransport disarmed_shim{net::NetFaultConfig{}};
  net::NetServerConfig shim_server_config;
  shim_server_config.listen = "unix:" + shim_dir.path + "/shim.sock";
  shim_server_config.faults = &disarmed_shim;
  net::NetServer shim_server(shim_engine, shim_server_config);
  shim_server.start();
  net::DriveConfig shim_drive = drive;
  shim_drive.address = shim_server.address();
  const net::DriveResult shim_result = net::drive_load(shim_drive, streams);
  shim_server.stop();
  shim_engine.drain();
  const double net_shim_disabled_packets_per_sec =
      shim_result.total_seconds > 0.0
          ? static_cast<double>(shim_result.packets_sent) /
                shim_result.total_seconds
          : 0.0;

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
               "  \"provider_retries\": %llu,\n"
               "  \"windows_per_sec_durable\": %.1f,\n"
               "  \"durable_overhead_pct\": %.2f,\n"
               "  \"journal_bytes\": %llu,\n"
               "  \"journal_flushes\": %llu,\n"
               "  \"checkpoints_written\": %llu,\n"
               "  \"frames_deduplicated\": %llu,\n"
               "  \"net_connections\": %zu,\n"
               "  \"net_packets\": %llu,\n"
               "  \"net_settled\": %d,\n"
               "  \"net_packets_per_sec\": %.1f,\n"
               "  \"net_windows_per_sec\": %.1f,\n"
               "  \"net_mb_per_sec\": %.2f,\n"
               "  \"net_backpressure_stalls\": %llu,\n"
               "  \"net_resume_packets_per_sec\": %.1f,\n"
               "  \"net_resume_settled\": %d,\n"
               "  \"net_shim_disabled_packets_per_sec\": %.1f,\n"
               "  \"net_shim_faults_injected\": %llu\n"
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
                   engine.models().provider_retries()),
               durable_windows_per_sec, durable_overhead_pct,
               static_cast<unsigned long long>(durability.journal_bytes()),
               static_cast<unsigned long long>(durability.journal().flushes()),
               static_cast<unsigned long long>(
                   durability.checkpoints_written()),
               static_cast<unsigned long long>(
                   durability.frames_deduplicated()),
               drive.connections,
               static_cast<unsigned long long>(net_result.packets_sent),
               net_result.settled ? 1 : 0, net_packets_per_sec,
               net_windows_per_sec, net_mb_per_sec,
               static_cast<unsigned long long>(net_stalls),
               net_resume_packets_per_sec, resume_result.settled ? 1 : 0,
               net_shim_disabled_packets_per_sec,
               static_cast<unsigned long long>(
                   disarmed_shim.counts().total()));
  std::fclose(f);
  std::printf("fleet: %.0f windows/s (%zu workers), durable %.0f windows/s "
              "(%.1f%% overhead), net %.0f windows/s / %.0f packets/s "
              "(%zu conns, %llu stalls), resume %.0f packets/s, "
              "shim-disabled %.0f packets/s, detect p50 %.2f us, "
              "p99 %.2f us, %.4f allocs/window -> %s\n",
              windows_per_sec, kWorkers, durable_windows_per_sec,
              durable_overhead_pct, net_windows_per_sec, net_packets_per_sec,
              drive.connections,
              static_cast<unsigned long long>(net_stalls),
              net_resume_packets_per_sec, net_shim_disabled_packets_per_sec,
              latency.quantile_us(0.5),
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
  constexpr std::size_t kSessions = 64;
  constexpr int kReps = 5;
  const auto& fixture = fixture_for(kSessions);
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
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (std::string_view(argv[i]) == "--scaling" && i + 1 < argc) {
      scaling_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!scaling_path.empty()) {
    const int rc = write_scaling_snapshot(scaling_path);
    if (rc != 0 || json_path.empty()) return rc;
  }
  if (!json_path.empty()) return write_json_snapshot(json_path);

  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
