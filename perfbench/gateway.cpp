// Workload gateway-paced: a `siftctl serve` subprocess with a checkpoint
// directory (WAL plus periodic checkpoints) on a unix socket, fed by an
// open-loop generator. Every wearer's packets go out on a fixed
// compressed-real-time schedule at one aggregate rate, about half the
// wire's closed-loop capacity, whether or not the gateway keeps up; each
// verdict is timed from when its window's last packet was due. net decode,
// the event loop and durable append/flush/checkpoint sit on the blocking
// path of every verdict; detection is a minor share.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "fleet/durable/durability.hpp"
#include "net/client.hpp"

namespace perfbench {

using namespace sift;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kWearers = 256;
constexpr std::size_t kModels = 4;
constexpr double kTraceSeconds = 12.0;
constexpr double kTrainSeconds = 120.0;
constexpr std::size_t kSenders = 2;
constexpr int kSetupReps = 9;
constexpr double kWarmupSeconds = 1.0;
/// Aggregate open-loop rate: about half the closed-loop wire capacity of a
/// one-worker gateway (~4.5k windows/s on the 4-core reference host).
constexpr double kWindowsPerSecond = 2000.0;
/// A generator whose sends ran this late at p99 did not hold the schedule;
/// the run is invalid rather than a measurement of the gateway.
constexpr double kMaxLagP99Ms = 50.0;
constexpr auto kSenderTick = std::chrono::milliseconds(1);
constexpr auto kObserverTick = std::chrono::microseconds(500);
/// Checkpoint cadence of the gateway. A checkpoint stalls the worker for
/// tens of ms and its fsync meets whatever else the disk is doing: at the
/// 500 ms default that stall alone set every run's p99, at 5 s it still
/// moved the per-second median by 5x between runs. So the first periodic
/// checkpoint is timed to fire a second after the measured interval (the
/// WAL append and its group-commit fsync stay on every verdict's path, and
/// SIGTERM takes the final one; serve's checkpointer sleeps out its
/// interval before it exits, so a longer one would only delay shutdown).
/// The stall is measured on its own as durable.checkpoint.ms.
constexpr double kCheckpointAfterSeconds = 1.0;

/// One `siftctl serve` child. Killed (if still running) and reaped on
/// destruction, and killed by the kernel if this process dies first.
class Gateway {
 public:
  Gateway(const Options& opt, const std::string& dir) : dir_(dir) {
    fs::create_directories(dir);
    address_ = "unix:" + dir + "/gw.sock";
    const std::vector<std::string> args = {
        opt.siftctl, "serve", "--listen", address_,
        "--models", std::to_string(kModels),
        "--train-seconds", std::to_string(static_cast<int>(kTrainSeconds)),
        "--seed", std::to_string(opt.seed),
        "--workers", "1", "--pin-cores",
        "--checkpoint-dir", checkpoint_dir(),
        "--checkpoint-interval",
        std::to_string(static_cast<long>(
            (kWarmupSeconds + opt.seconds + kCheckpointAfterSeconds) * 1000))};
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const std::string out_path = dir + "/stdout.txt";
    const std::string err_path = dir + "/stderr.txt";
    launched_ = Clock::now();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The gateway gets cores 0 and 1 (its worker pins itself to 0); the
      // load side runs on 2 and 3, so neither steals the other's cycles.
      cpu_set_t cores;
      CPU_ZERO(&cores);
      CPU_SET(0, &cores);
      CPU_SET(1, &cores);
      sched_setaffinity(0, sizeof cores, &cores);
      const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out < 0 || err < 0) _exit(127);
      dup2(out, STDOUT_FILENO);
      dup2(err, STDERR_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
  }
  ~Gateway() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  pid_t pid() const noexcept { return pid_; }
  const std::string& address() const noexcept { return address_; }
  std::string checkpoint_dir() const { return dir_ + "/ckpt"; }

  /// Seconds from launch until the gateway answers a stats request (models
  /// trained, listener up).
  double wait_ready() {
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      try {
        net::Client probe(address_);
        probe.stats(std::chrono::milliseconds(5000));
        return seconds_between(launched_, Clock::now());
      } catch (const std::exception&) {
      }
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("gateway exited during start-up: " + dir_);
      }
      if (Clock::now() > deadline) throw std::runtime_error("gateway not ready");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Graceful stop (SIGTERM drains, checkpoints and prints the metrics
  /// snapshot); returns that snapshot.
  std::map<std::string, double> stop() {
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("gateway did not exit cleanly");
    }
    std::ifstream in(dir_ + "/stdout.txt");
    std::stringstream ss;
    ss << in.rdbuf();
    return parse_flat_json(ss.str());
  }

 private:
  std::string dir_;
  std::string address_;
  pid_t pid_ = -1;
  Clock::time_point launched_{};
};

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

Result run_gateway_paced(const Options& opt) {
  Result r;
  const auto traces = wearer_traces(kWearers, kTraceSeconds, kModels, opt.seed);
  const auto models = build_models(kModels, kTrainSeconds, opt.seed);
  const std::size_t per_window = 2 * wiot::BaseStation::Config{}.window_samples /
                                 wiot::BaseStation::Config{}.samples_per_packet;

  // Set-up: launch → accepting with models trained; repeated, median kept.
  std::vector<double> setup_s;
  std::unique_ptr<Gateway> gateway;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    gateway.reset();
    gateway = std::make_unique<Gateway>(
        opt, opt.work_dir + "/gw" + std::to_string(rep));
    setup_s.push_back(gateway->wait_ready());
  }
  const pid_t pid = gateway->pid();

  // The schedule: slot g = step * wearers + wearer is due at t0 + g / rate.
  // Wearer u starts u % per_window steps late, so window closings spread
  // evenly over time instead of arriving as one burst per window period.
  const double packet_rate = kWindowsPerSecond * static_cast<double>(per_window);
  const auto phase = [&](std::size_t wearer) { return wearer % per_window; };
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t step, std::size_t wearer) {
    return t0 + secs(static_cast<double>(step * kWearers + wearer) / packet_rate);
  };
  const auto t_m0 = t0 + secs(kWarmupSeconds);
  const auto t_half = t_m0 + secs(opt.seconds / 2);
  const auto t_m1 = t_m0 + secs(opt.seconds);

  // Observer: the gateway's verdict count as it moves, its memory, and the
  // stats round trip.
  CountLog log;
  std::vector<double> rtt_us;
  std::vector<std::pair<Clock::time_point, double>> rss;
  std::atomic<std::uint64_t> accepted{0}, rejected{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> observer_failed{false};
  std::atomic<std::uint64_t> windows{0};
  std::thread observer([&] {
    pin_this_thread(3);  // the gateway's worker holds core 0
    try {
      net::Client client(gateway->address());
      auto next_rss = Clock::now();
      for (auto tick = Clock::now(); !stop.load(std::memory_order_relaxed);
           tick += kObserverTick) {
        std::this_thread::sleep_until(tick);
        const auto a = Clock::now();
        const net::wire::Stats stats = client.stats();
        const auto b = Clock::now();
        log.add(b, stats.windows_classified);
        windows.store(stats.windows_classified);
        accepted.store(stats.packets_accepted);
        rejected.store(stats.packets_rejected);
        rtt_us.push_back(std::chrono::duration<double, std::micro>(b - a).count());
        if (b >= next_rss) {
          rss.emplace_back(b, read_rss_mb(pid));
          next_rss = b + std::chrono::milliseconds(50);
        }
      }
    } catch (const std::exception&) {
      observer_failed.store(true);
    }
  });

  // Senders: wearer u goes out on connection u % kSenders. Each sender
  // wakes once per tick and sends every packet that has come due, so lag is
  // at most a tick plus whatever the socket held it up.
  std::vector<std::size_t> sent_steps(kWearers, 0);
  std::vector<std::vector<double>> lag_ms(kSenders);
  std::vector<double> blocked_us(kSenders, 0.0);
  std::atomic<bool> sender_failed{false};
  ProcSample p0, p1;  // the gateway's, at the ends of the measured interval
  {
    std::vector<std::jthread> senders;
    for (std::size_t c = 0; c < kSenders; ++c) {
      senders.emplace_back([&, c] {
        pin_this_thread(2 + static_cast<unsigned>(c));
        prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 µs: wake on the tick
        try {
          net::Client client(gateway->address());
          wiot::Packet packet;
          std::size_t step = 0, u = c;
          bool done = false;
          for (auto tick = t0; !done; tick += kSenderTick) {
            std::this_thread::sleep_until(tick);
            const auto now = Clock::now();
            const bool timed = now >= t_half && opt.trace;
            const auto a = Clock::now();
            for (;;) {
              const auto when = due(step, u);
              if (when >= t_m1) {
                done = true;
                break;
              }
              if (when > now) break;
              if (step >= phase(u)) {  // wearer u starts phase(u) steps late
                const std::size_t local = step - phase(u);
                looped_packet(traces[u], local, packet);
                client.send_packet(static_cast<std::int32_t>(u), packet);
                if (when >= t_m0) {
                  lag_ms[c].push_back(
                      std::chrono::duration<double, std::milli>(now - when).count());
                }
                sent_steps[u] = local + 1;
              }
              u += kSenders;
              if (u >= kWearers) {
                u = c;
                ++step;
              }
            }
            client.flush();
            if (timed) {
              blocked_us[c] +=
                  std::chrono::duration<double, std::micro>(Clock::now() - a).count();
            }
          }
        } catch (const std::exception&) {
          sender_failed.store(true);
        }
      });
    }
    std::this_thread::sleep_until(t_m0);
    p0 = read_proc(pid);
    std::this_thread::sleep_until(t_m1);
    p1 = read_proc(pid);
    r.details["gateway.cpu_s"] = Metric{(p1.user_s + p1.sys_s) - (p0.user_s + p0.sys_s), "s", 1};
    r.details["gateway.sys_s"] = Metric{p1.sys_s - p0.sys_s, "s", 1};
    r.details["gateway.ctx_switches"] =
        Metric{static_cast<double>(p1.ctx_switches - p0.ctx_switches), "count", 1};
  }

  // Settle: every packet sent accounted for, every window it closes
  // classified (the observer keeps the count moving meanwhile).
  std::uint64_t expected_windows = 0, sent_packets = 0;
  for (std::size_t u = 0; u < kWearers; ++u) {
    expected_windows += sent_steps[u] / per_window;
    sent_packets += sent_steps[u];
  }
  const auto settle_deadline = Clock::now() + std::chrono::seconds(30);
  while ((accepted.load() + rejected.load() < sent_packets ||
          windows.load() < expected_windows) &&
         Clock::now() < settle_deadline && !observer_failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  observer.join();
  if (sender_failed.load() || observer_failed.load()) {
    throw std::runtime_error("gateway connection failed");
  }
  const auto snapshot = gateway->stop();

  // Correctness: the merged journal, user by user, against an
  // uninterrupted single-thread reference over the same packets.
  wiot::BaseStation::Config station;  // the gateway's default geometry
  const auto reference = reference_stations(traces, sent_steps, models, station, 3);
  auto journal = fleet::durable::Durability::scan_merged(gateway->checkpoint_dir());
  std::stable_sort(journal.begin(), journal.end(),
                   [](const auto& a, const auto& b) {
                     return a.user_id != b.user_id ? a.user_id < b.user_id
                                                   : a.seq < b.seq;
                   });
  std::uint64_t mismatched = 0;
  std::size_t at = 0;
  for (std::size_t u = 0; u < kWearers; ++u) {
    for (const auto& want : reference[u].reports()) {
      if (at >= journal.size() || journal[at].user_id != static_cast<int>(u) ||
          journal[at].seq != want.window_index ||
          journal[at].decision_value != want.decision_value ||
          ((journal[at].flags & fleet::durable::VerdictRecord::kAltered) != 0) !=
              want.altered) {
        ++mismatched;
      } else {
        ++at;
      }
    }
  }
  mismatched += journal.size() - at;
  const std::uint64_t classified = log.at(Clock::now());
  const std::uint64_t missing =
      expected_windows > classified ? expected_windows - classified : 0;
  const std::uint64_t not_accepted =
      sent_packets - std::min(sent_packets, accepted.load());
  r.attempted = sent_packets;
  r.failed = not_accepted + rejected.load() + missing + mismatched;
  if (r.failed != 0) {
    r.fail("gateway-paced: " + std::to_string(not_accepted) +
           " packet(s) not accepted, " + std::to_string(rejected.load()) + " rejected, " +
           std::to_string(missing) + " window(s) never classified, " +
           std::to_string(mismatched) + " journal record(s) off the reference");
  }

  std::vector<double> lag;
  for (const auto& l : lag_ms) lag.insert(lag.end(), l.begin(), l.end());
  const double lag_p99 = quantile(lag, 0.99);
  r.details["loadgen.lag.p99_ms"] = Metric{lag_p99, "ms", lag.size()};
  r.details["net.stats_rtt.p50_us"] = Metric{median(rtt_us), "us", rtt_us.size()};
  if (lag_p99 > kMaxLagP99Ms) {
    r.fail("gateway-paced: generator fell behind its schedule (lag p99 " +
           std::to_string(lag_p99) + " ms); run invalid");
  }

  const double verdicts = static_cast<double>(log.at(t_m1) - log.at(t_m0));
  const double cpu_s = r.details["gateway.cpu_s"].value;
  double peak_rss = 0.0;
  for (const auto& [t, mb] : rss) {
    if (t >= t_m0 && t <= t_m1) peak_rss = std::max(peak_rss, mb);
  }

  if (!opt.trace) {
    // Due time of every window's closing packet, in due order: the order
    // the gateway's cumulative verdict count passes them.
    std::vector<Clock::time_point> ready;
    for (std::size_t u = 0; u < kWearers; ++u) {
      for (std::size_t k = 0; k < sent_steps[u] / per_window; ++k) {
        ready.push_back(due(phase(u) + (k + 1) * per_window - 1, u));
      }
    }
    std::sort(ready.begin(), ready.end());
    r.put("setup_s", median(setup_s), "s", setup_s.size());
    r.put("verdicts_per_s", log.rate(t_m0, t_m1), "1/s",
          static_cast<std::uint64_t>(verdicts));
    put_latency(log.latencies_ms(ready, 1, t_m0, t_m1), r);
    r.put("cpu_us_per_verdict", cpu_s * 1e6 / verdicts, "us",
          static_cast<std::uint64_t>(verdicts));
    r.put("peak_rss_mb", peak_rss, "MB", rss.size());
    return r;
  }

  // Traced run: the gateway's exported counters, then the layer walk.
  double blocked = 0.0;
  for (double b : blocked_us) blocked += b;
  RunLayers layers;
  layers.snapshot = snapshot;
  layers.p0 = p0;
  layers.p1 = p1;
  layers.verdicts = verdicts;
  layers.send_blocked_frac =
      blocked / (static_cast<double>(kSenders) * seconds_between(t_half, t_m1) * 1e6);
  layers.log = &log;
  layers.t_m0 = t_m0;
  layers.t_half = t_half;
  layers.t_m1 = t_m1;
  put_run_layers(layers, r);
  gateway.reset();

  WalkInput walk;
  walk.traces = &traces;
  walk.models = models;
  walk.fleet.workers = 1;
  walk.fleet.pin_cores = true;
  walk.fleet.model_cache_capacity = kModels;
  walk.work_dir = opt.work_dir;
  walk.span_csv = opt.out_dir + "/spans-gateway-paced-" + std::to_string(opt.seed) + ".csv";
  run_layer_walk(walk, r);
  return r;
}

}  // namespace perfbench
