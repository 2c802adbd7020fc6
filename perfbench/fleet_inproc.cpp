// Workload fleet-inproc: one producer thread calls FleetEngine::ingest for
// 256 long-lived wearers in a closed loop under kBlock, with one pinned
// worker, no network and no durability. Each wearer loops a fixed 12 s
// trace with its sequence numbers advanced, so memory stays flat however
// long the run. Nearly all the work is wiot reassembly, core/ml detection
// and the fleet handoff.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <thread>

#include "common.hpp"

namespace perfbench {

using namespace sift;

namespace {

constexpr std::size_t kWearers = 256;
constexpr std::size_t kModels = 4;
constexpr double kTraceSeconds = 12.0;
constexpr double kTrainSeconds = 120.0;
constexpr std::size_t kWorkers = 1;
constexpr int kSetupReps = 15;
constexpr double kWarmupSeconds = 1.0;
constexpr auto kObserverTick = std::chrono::microseconds(200);
constexpr auto kRssPeriod = std::chrono::milliseconds(50);
/// Only every kLatencyStride-th window's ready time is kept (at ~35k
/// windows/s that is still ~2k latency samples a second), in a buffer sized
/// for kMaxWindowsPerSecond, several times what one worker classifies. The
/// buffer is resident before the measured interval, so neither the
/// producer's timing nor peak_rss_mb sees the harness grow.
constexpr std::size_t kLatencyStride = 16;
constexpr double kMaxWindowsPerSecond = 400e3;

double thread_cpu_of(std::thread& t) {
  clockid_t id{};
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0) return 0.0;
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

Result run_fleet_inproc(const Options& opt) {
  Result r;
  const auto traces = wearer_traces(kWearers, kTraceSeconds, kModels, opt.seed);

  fleet::FleetConfig config;
  config.workers = kWorkers;
  config.pin_cores = true;
  config.backpressure = fleet::BackpressurePolicy::kBlock;
  config.model_cache_capacity = kModels;
  config.station.max_report_history = 16;  // flat memory on long sessions

  // Set-up: build the models as `siftctl serve` does (training records and
  // training) and bring the engine up with them resident. Repeated; the
  // median is reported.
  fleet::ModelProvider models;
  std::optional<fleet::FleetEngine> engine;
  std::vector<int> model_users(kModels);
  std::iota(model_users.begin(), model_users.end(), 0);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const auto t0 = Clock::now();
    models = build_models(kModels, kTrainSeconds, opt.seed);
    engine.emplace(models, config);
    engine->models().warm_load(model_users);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // The harness's own buffers, sized for the whole run and resident now.
  const double run_s = kWarmupSeconds + opt.seconds + 1.0;
  CountLog log;
  log.reserve(static_cast<std::size_t>(
      run_s / std::chrono::duration<double>(kObserverTick).count()));
  std::vector<std::pair<Clock::time_point, double>> rss;
  reserve_resident(rss, static_cast<std::size_t>(
                            run_s / std::chrono::duration<double>(kRssPeriod).count()));
  std::vector<Clock::time_point> closed;  // every kLatencyStride-th window's ready time
  reserve_resident(closed, static_cast<std::size_t>(
                               run_s * kMaxWindowsPerSecond / kLatencyStride));

  // Observer: the verdict count as it moves, plus resident memory.
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    pin_this_thread(3);
    auto next_rss = Clock::now();
    for (auto tick = Clock::now(); !stop.load(std::memory_order_relaxed);
         tick += kObserverTick) {
      std::this_thread::sleep_until(tick);
      const auto now = Clock::now();
      log.add(now, engine->windows_classified());
      if (now >= next_rss) {
        rss.emplace_back(now, read_rss_mb(0));
        next_rss = now + kRssPeriod;
      }
    }
  });

  // Producer: time-major over the wearers, one whole step at a time.
  wiot::Packet packet;
  std::uint64_t rejected = 0, closes = 0;
  const auto start = Clock::now();
  const auto warm_end = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(kWarmupSeconds));
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds / 2));
  Clock::time_point t_m0{}, t_half{}, t_m1{};
  ProcSample p0{}, p1{};
  double producer_cpu0 = 0, producer_cpu1 = 0, observer_cpu0 = 0,
         observer_cpu1 = 0;
  std::uint64_t w0 = 0, w1 = 0;
  bool measuring = false, traced = false;
  double busy_us = 0.0;
  std::size_t step = 0;
  std::thread producer([&] {
    pin_this_thread(1);  // the engine's worker holds core 0
    for (;; ++step) {
      const auto now = Clock::now();
      if (!measuring && now >= warm_end) {
        measuring = true;
        t_m0 = now;
        p0 = read_proc(0);
        producer_cpu0 = thread_cpu_s();
        observer_cpu0 = thread_cpu_of(observer);
        w0 = engine->windows_classified();
      }
      if (measuring && opt.trace && !traced && now >= t_m0 + half) {
        traced = true;
        t_half = now;
      }
      if (measuring &&
          now >= t_m0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(opt.seconds))) {
        t_m1 = now;
        p1 = read_proc(0);
        producer_cpu1 = thread_cpu_s();
        observer_cpu1 = thread_cpu_of(observer);
        w1 = engine->windows_classified();
        break;
      }
      for (std::size_t u = 0; u < kWearers; ++u) {
        looped_packet(traces[u], step, packet);
        if (closes_window(traces[u], step) && ++closes % kLatencyStride == 0 &&
            closed.size() < closed.capacity()) {
          closed.push_back(Clock::now());
        }
        if (traced) {
          const auto a = Clock::now();
          if (!engine->ingest(static_cast<int>(u), std::move(packet))) ++rejected;
          busy_us += std::chrono::duration<double, std::micro>(Clock::now() - a).count();
        } else if (!engine->ingest(static_cast<int>(u), std::move(packet))) {
          ++rejected;
        }
      }
    }
  });
  producer.join();
  engine->drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  stop.store(true);
  observer.join();

  // Correctness: per-session counts against the single-thread reference.
  const std::vector<std::size_t> packets(kWearers, step);
  const auto reference = reference_stations(traces, packets, models,
                                            config.station, 3);
  std::uint64_t expected_windows = 0, mismatched = 0, seen = 0;
  for (const auto& st : reference) expected_windows += st.stats().windows_classified;
  engine->sessions().for_each([&](int user, const fleet::Session& s) {
    ++seen;
    const auto& want = reference.at(static_cast<std::size_t>(user)).stats();
    if (s.stats().windows_classified != want.windows_classified ||
        s.stats().alerts != want.alerts) {
      ++mismatched;
    }
  });
  const std::uint64_t classified = engine->windows_classified();
  const std::uint64_t missing =
      expected_windows > classified ? expected_windows - classified
                                    : classified - expected_windows;
  r.attempted = static_cast<std::uint64_t>(step) * kWearers;
  r.failed = rejected + missing + mismatched + (kWearers - seen);
  if (r.failed != 0) {
    r.fail("fleet-inproc: " + std::to_string(rejected) + " rejected, " +
           std::to_string(missing) + " window(s) off the reference, " +
           std::to_string(mismatched) + " session(s) mismatched, " +
           std::to_string(kWearers - seen) + " session(s) missing");
  }

  const double verdicts = static_cast<double>(w1 - w0);
  const double engine_cpu = (p1.user_s + p1.sys_s) - (p0.user_s + p0.sys_s) -
                            (producer_cpu1 - producer_cpu0) -
                            (observer_cpu1 - observer_cpu0);
  double peak_rss = 0.0;
  for (const auto& [t, mb] : rss) {
    if (t >= t_m0 && t <= t_m1) peak_rss = std::max(peak_rss, mb);
  }

  if (!opt.trace) {
    r.put("setup_s", median(setup_s), "s", setup_s.size());
    r.put("verdicts_per_s", verdicts / seconds_between(t_m0, t_m1), "1/s",
          static_cast<std::uint64_t>(verdicts));
    put_latency(log.latencies_ms(closed, kLatencyStride, t_m0, t_m1), r);
    r.put("cpu_us_per_verdict", engine_cpu * 1e6 / verdicts, "us",
          static_cast<std::uint64_t>(verdicts));
    r.put("peak_rss_mb", peak_rss, "MB", rss.size());
    return r;
  }

  // Traced run: layer counters the engine exports, then the layer walk.
  RunLayers layers;
  layers.snapshot = parse_flat_json(engine->metrics_json());
  layers.p0 = p0;
  layers.p1 = p1;
  layers.verdicts = verdicts;
  layers.send_blocked_frac = busy_us / (seconds_between(t_half, t_m1) * 1e6);
  layers.log = &log;
  layers.t_m0 = t_m0;
  layers.t_half = t_half;
  layers.t_m1 = t_m1;
  put_run_layers(layers, r);
  engine.reset();

  WalkInput walk;
  walk.traces = &traces;
  walk.models = models;
  walk.fleet = config;
  walk.work_dir = opt.work_dir;
  walk.span_csv = opt.out_dir + "/spans-fleet-inproc-" + std::to_string(opt.seed) + ".csv";
  run_layer_walk(walk, r);
  return r;
}

}  // namespace perfbench
