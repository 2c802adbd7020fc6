#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/detector.hpp"
#include "fleet/replay.hpp"

namespace perfbench {

using namespace sift;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

std::string proc_dir(pid_t pid) {
  return pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of a "Key:   123 kB" line in a /proc status file (0 if absent).
std::uint64_t status_field(const std::string& text, const std::string& key) {
  const auto at = text.find(key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  ProcSample out;
  const std::string dir = proc_dir(pid);
  // utime and stime are fields 14 and 15 of /proc/<pid>/stat, counted after
  // the parenthesised command name (which may itself contain spaces).
  const std::string stat = slurp(dir + "/stat");
  const auto close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    std::vector<std::string> f;
    while (fields >> field && f.size() < 13) f.push_back(field);
    if (f.size() >= 13) {
      const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
      out.user_s = std::strtod(f[11].c_str(), nullptr) / tick;
      out.sys_s = std::strtod(f[12].c_str(), nullptr) / tick;
    }
  }
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task", ec)) {
    const std::string status = slurp(task.path().string() + "/status");
    out.ctx_switches += status_field(status, "voluntary_ctxt_switches") +
                        status_field(status, "nonvoluntary_ctxt_switches");
  }
  return out;
}

double read_rss_mb(pid_t pid) {
  const std::string status = slurp(proc_dir(pid) + "/status");
  return static_cast<double>(status_field(status, "VmRSS")) / 1024.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void pin_this_thread(unsigned core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % std::max(1u, std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::map<std::string, double> parse_flat_json(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t i = 0;
  while ((i = text.find('"', i)) != std::string::npos) {
    const std::size_t key_end = text.find('"', i + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(i + 1, key_end - i - 1);
    std::size_t v = text.find(':', key_end);
    if (v == std::string::npos) break;
    ++v;
    while (v < text.size() && std::isspace(static_cast<unsigned char>(text[v]))) ++v;
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + v, &end);
    if (end != text.c_str() + v) out[key] = value;
    i = end != text.c_str() + v ? static_cast<std::size_t>(end - text.c_str())
                                : key_end + 1;
  }
  return out;
}

fleet::ModelProvider build_models(std::size_t k, double train_seconds,
                                  std::uint64_t seed) {
  fleet::ReplayConfig config;
  config.distinct_users = k;
  config.train_seconds = train_seconds;
  config.seed = seed;
  return fleet::ReplayFixture::build_models_only(config).provider();
}

std::vector<std::vector<wiot::Packet>> wearer_traces(std::size_t wearers,
                                                     double trace_seconds,
                                                     std::size_t models,
                                                     std::uint64_t seed) {
  fleet::ReplayConfig config;
  config.sessions = wearers;
  config.seconds = trace_seconds;
  config.distinct_users = models;
  config.seed = seed;
  auto traces = fleet::build_session_streams(config);
  // Looping needs both channels to hold the same whole number of windows.
  const wiot::BaseStation::Config station;
  const std::size_t per_window = station.window_samples / station.samples_per_packet;
  for (const auto& t : traces) {
    if (t.empty() || t.size() % (2 * per_window) != 0) {
      throw std::runtime_error("wearer trace is not a whole number of windows");
    }
  }
  return traces;
}

void looped_packet(const std::vector<wiot::Packet>& trace, std::size_t step,
                   wiot::Packet& out) {
  const wiot::Packet& base = trace[step % trace.size()];
  out.kind = base.kind;
  out.sample_rate_hz = base.sample_rate_hz;
  out.samples.assign(base.samples.begin(), base.samples.end());
  out.peaks.assign(base.peaks.begin(), base.peaks.end());
  out.seq = base.seq +
            static_cast<std::uint32_t>((step / trace.size()) * (trace.size() / 2));
}

bool closes_window(const std::vector<wiot::Packet>& trace, std::size_t step) {
  // The interleave alternates ECG, ABP; a window of P packets per channel
  // closes on every 2P-th packet of the looped stream, an ABP one.
  const wiot::BaseStation::Config station;
  const std::size_t per_window = 2 * station.window_samples / station.samples_per_packet;
  return trace[step % trace.size()].kind == wiot::ChannelKind::kAbp &&
         (step + 1) % per_window == 0;
}

std::vector<wiot::BaseStation> reference_stations(
    const std::vector<std::vector<wiot::Packet>>& traces,
    const std::vector<std::size_t>& packets, const fleet::ModelProvider& models,
    const wiot::BaseStation::Config& station, std::size_t threads) {
  std::vector<wiot::BaseStation> out;
  out.reserve(traces.size());
  for (std::size_t u = 0; u < traces.size(); ++u) {
    out.emplace_back(core::Detector(models(static_cast<int>(u))), station);
  }
  threads = std::max<std::size_t>(1, threads);
  std::vector<std::jthread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      wiot::Packet packet;
      for (std::size_t u = t; u < traces.size(); u += threads) {
        for (std::size_t s = 0; s < packets[u]; ++s) {
          looped_packet(traces[u], s, packet);
          out[u].receive(packet);
        }
      }
    });
  }
  return out;
}

std::uint64_t CountLog::at(Clock::time_point t) const {
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return 0;
  return counts_[static_cast<std::size_t>(it - times_.begin()) - 1];
}

double CountLog::rate(Clock::time_point from, Clock::time_point to) const {
  const auto a = std::upper_bound(times_.begin(), times_.end(), from);
  const auto b = std::upper_bound(times_.begin(), times_.end(), to);
  if (a == times_.begin() || b - a < 1) return 0.0;
  const std::size_t i = static_cast<std::size_t>(a - times_.begin()) - 1;
  const std::size_t j = static_cast<std::size_t>(b - times_.begin()) - 1;
  return static_cast<double>(counts_[j] - counts_[i]) /
         seconds_between(times_[i], times_[j]);
}

std::vector<double> CountLog::latencies_ms(
    const std::vector<Clock::time_point>& ready, std::size_t stride,
    Clock::time_point from, Clock::time_point to) const {
  std::vector<double> out;
  std::size_t obs = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (ready[i] < from || ready[i] >= to) continue;
    const std::uint64_t window = (i + 1) * stride - 1;
    while (obs < counts_.size() && counts_[obs] <= window) ++obs;
    if (obs == counts_.size()) break;  // never observed done
    out.push_back(
        std::chrono::duration<double, std::milli>(times_[obs] - ready[i]).count());
  }
  return out;
}

void put_latency(const std::vector<double>& latencies_ms, Result& r) {
  r.put("verdict_p50_ms", quantile(latencies_ms, 0.50), "ms", latencies_ms.size());
  r.details["verdict_p99_ms"] =
      Metric{quantile(latencies_ms, 0.99), "ms", latencies_ms.size()};
}

void put_run_layers(const RunLayers& in, Result& r) {
  const auto get = [&](const std::string& key) {
    const auto it = in.snapshot.find(key);
    return it == in.snapshot.end() ? 0.0 : it->second;
  };
  const double workers = std::max(1.0, get("fleet.workers"));
  double packets = 0, batches = 0, max_packets = 0;
  for (int w = 0; w < static_cast<int>(workers); ++w) {
    const std::string prefix = "fleet.worker." + std::to_string(w);
    packets += get(prefix + ".packets");
    batches += get(prefix + ".batches");
    max_packets = std::max(max_packets, get(prefix + ".packets"));
  }
  const double lookups = get("fleet.model_hits") + get("fleet.model_misses");
  const auto count = [](double v) { return static_cast<std::uint64_t>(v); };
  r.put("fleet.batch_mean", packets / std::max(1.0, batches), "count", count(batches));
  r.put("fleet.worker_skew", max_packets / std::max(1.0, packets / workers),
        "ratio", count(workers));
  r.put("fleet.packet_latency.p99_us", get("fleet.e2e_latency.p99_us"), "us",
        count(get("fleet.e2e_latency.count")));
  r.put("fleet.detect.p50_us", get("fleet.detect_latency.p50_us"), "us",
        count(get("fleet.detect_latency.count")));
  r.put("fleet.model_hit_ratio", get("fleet.model_hits") / std::max(1.0, lookups),
        "ratio", count(lookups));
  r.put("fleet.model_lookups", lookups, "count");
  // 0 in-process: there is no network layer to stall.
  r.put("net.stalls_per_kpacket",
        get("net.backpressure_stalls") * 1000.0 / std::max(1.0, get("net.packets_in")),
        "count", count(get("net.packets_in")));

  const double cpu = (in.p1.user_s + in.p1.sys_s) - (in.p0.user_s + in.p0.sys_s);
  r.put("gateway.cpu_sys_frac", (in.p1.sys_s - in.p0.sys_s) / std::max(1e-9, cpu),
        "ratio");
  r.put("gateway.ctxsw_per_verdict",
        static_cast<double>(in.p1.ctx_switches - in.p0.ctx_switches) / in.verdicts,
        "count", count(in.verdicts));
  r.put("loadgen.send_blocked_frac", in.send_blocked_frac, "ratio");
  const double plain = static_cast<double>(in.log->at(in.t_half) - in.log->at(in.t_m0)) /
                       seconds_between(in.t_m0, in.t_half);
  const double traced = static_cast<double>(in.log->at(in.t_m1) - in.log->at(in.t_half)) /
                        seconds_between(in.t_half, in.t_m1);
  r.put("trace.overhead_frac", 1.0 - traced / plain, "ratio");
}

std::vector<double> Tracer::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = std::chrono::duration<double, std::micro>(spans_[i].end -
                                                        spans_[i].start)
                  .count();
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          std::chrono::duration<double, std::micro>(spans_[i].end -
                                                    spans_[i].start)
              .count();
    }
  }
  return self;
}

void Tracer::summarize(Result& out) const {
  const std::vector<double> self = self_us();
  // Root spans carry only the harness's own time between stages; they are
  // neither reported nor counted in the shares.
  std::vector<std::vector<double>> by_name(names_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) continue;
    by_name[spans_[i].name].push_back(self[i]);
    total += self[i];
  }
  for (std::size_t n = 0; n < names_.size(); ++n) {
    const auto& v = by_name[n];
    if (v.empty()) continue;
    double sum = 0.0;
    for (double x : v) sum += x;
    out.put(names_[n] + ".p50_us", quantile(v, 0.50), "us", v.size());
    out.put(names_[n] + ".p99_us", quantile(v, 0.99), "us", v.size());
    out.put(names_[n] + ".share", total > 0 ? sum / total : 0.0, "ratio",
            v.size());
  }
}

void Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "id,name,parent,window,start_ns,end_ns\n");
  const auto origin = spans_.empty() ? Clock::time_point{} : spans_[0].start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f, "%zu,%s,%d,%llu,%lld,%lld\n", i, names_[s.name].c_str(),
                 s.parent, static_cast<unsigned long long>(s.window),
                 static_cast<long long>(
                     std::chrono::nanoseconds(s.start - origin).count()),
                 static_cast<long long>(
                     std::chrono::nanoseconds(s.end - origin).count()));
  }
  std::fclose(f);
}

}  // namespace perfbench
