// Shared plumbing for the benchmark program: run options, the metric/result
// record every workload fills, statistics, /proc readers, the span recorder
// of the traced run, and the seed-derived fixtures (trained models, wearer
// traces, single-thread reference).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/engine.hpp"
#include "fleet/model_registry.hpp"
#include "wiot/base_station.hpp"
#include "wiot/packet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string siftctl;   ///< gateway binary
  std::string work_dir;  ///< per-run working directory (removed at exit)
  std::string out_dir;   ///< where the traced run writes its spans
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What one run reports: the contract line plus the evidence behind it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Printed beside the metrics but not part of the result object: figures
  /// that only some workloads have (generator lag, stats round trip).
  std::map<std::string, Metric> details;
  std::vector<std::string> notes;

  void put(const std::string& name, double value, const char* unit,
           std::uint64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Marks the run incorrect (the command then exits non-zero).
  void fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

double seconds_between(Clock::time_point a, Clock::time_point b);
/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Whole-process counters of @p pid (0 = this process), summed over threads.
struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary, all threads
};
ProcSample read_proc(pid_t pid);
/// Resident set size of @p pid (0 = this process) in MB.
double read_rss_mb(pid_t pid);
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// Pins the calling thread to @p core (modulo the core count). The engine
/// pins worker w to core w; the load side keeps off core 0 with this.
void pin_this_thread(unsigned core);

/// Flat `{"key": number, ...}` objects, as MetricsRegistry::snapshot_json
/// writes them. Non-numeric values are skipped.
std::map<std::string, double> parse_flat_json(const std::string& text);

/// The models `siftctl serve --models K --train-seconds S --seed N` serves,
/// built the same way (fleet::ReplayFixture::build_models_only: training
/// records synthesised, then K models trained): user → model[user % K].
sift::fleet::ModelProvider build_models(std::size_t k, double train_seconds,
                                        std::uint64_t seed);

/// Gives @p v room for @p n elements and writes every one of them first, so
/// a harness buffer is resident before a measured interval and never
/// reallocates inside it.
template <typename T>
void reserve_resident(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

/// One fixed trace per wearer (both channels, time-ordered interleave, a
/// whole number of windows), as fleet::build_session_streams makes them.
std::vector<std::vector<sift::wiot::Packet>> wearer_traces(
    std::size_t wearers, double trace_seconds, std::size_t models,
    std::uint64_t seed);

/// Packet @p step of a wearer that loops @p trace forever: the trace's
/// packet with its sequence number advanced by whole loops, so the stream
/// stays continuous and memory stays flat however long a run lasts.
void looped_packet(const std::vector<sift::wiot::Packet>& trace,
                   std::size_t step, sift::wiot::Packet& out);

/// Whether the packet at @p step of a looped trace closes a window (a
/// window closes on its last ABP packet).
bool closes_window(const std::vector<sift::wiot::Packet>& trace,
                   std::size_t step);

/// Single-thread reference: the first packets[u] packets of wearer u's
/// looped stream through a plain BaseStation, wearers fanned over
/// @p threads.
std::vector<sift::wiot::BaseStation> reference_stations(
    const std::vector<std::vector<sift::wiot::Packet>>& traces,
    const std::vector<std::size_t>& packets,
    const sift::fleet::ModelProvider& models,
    const sift::wiot::BaseStation::Config& station, std::size_t threads);

/// In-memory spans of the traced run: name, start, end, parent span and the
/// window the work belongs to. Written out once, at the end.
class Tracer {
 public:
  explicit Tracer(std::vector<std::string> names) : names_(std::move(names)) {
    spans_.reserve(1u << 16);
  }

  int begin(std::size_t name, int parent, std::uint64_t window) {
    spans_.push_back(Span{name, parent, window, Clock::now(), {}});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int span) { spans_[static_cast<std::size_t>(span)].end = Clock::now(); }

  /// Self time of every span (its duration minus its children's), in µs.
  std::vector<double> self_us() const;
  /// Per name: p50/p99 of self time and the share of all self time.
  void summarize(Result& out) const;
  /// One CSV line per span: id,name,parent,window,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    std::size_t name = 0;
    int parent = -1;
    std::uint64_t window = 0;
    Clock::time_point start{};
    Clock::time_point end{};
  };
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Observed cumulative verdict count over time (windows_classified as an
/// observer saw it). Verdict latency uses cumulative-count matching: window
/// j is done at the first observation whose count exceeds j.
class CountLog {
 public:
  /// Makes room for @p n observations, resident (see reserve_resident).
  void reserve(std::size_t n) {
    reserve_resident(times_, n);
    reserve_resident(counts_, n);
  }
  void add(Clock::time_point t, std::uint64_t count) {
    if (!counts_.empty() && counts_.back() == count) return;
    times_.push_back(t);
    counts_.push_back(count);
  }
  /// Count observed at or before @p t (0 before the first observation).
  std::uint64_t at(Clock::time_point t) const;
  /// Verdicts per second between the last observations at or before
  /// @p from and @p to, over the time between those observations.
  double rate(Clock::time_point from, Clock::time_point to) const;
  /// Latency (ms) of every sampled window whose ready time lies in
  /// [from, to). ready[i] is the ready time of window (i + 1) * stride - 1
  /// (every stride-th window, in the order the count passes them); it is
  /// done at the first observation with a count above its index.
  std::vector<double> latencies_ms(const std::vector<Clock::time_point>& ready,
                                   std::size_t stride, Clock::time_point from,
                                   Clock::time_point to) const;

 private:
  std::vector<Clock::time_point> times_;
  std::vector<std::uint64_t> counts_;
};

/// Puts verdict_p50_ms, the median over every sampled window of the run,
/// and the 99th percentile over the same windows as the detail
/// verdict_p99_ms. The tail is printed, not gated: on a shared host it is
/// set by how often the host stalls the process, which varies several-fold
/// from run to run.
void put_latency(const std::vector<double>& latencies_ms, Result& r);

/// The traced run's layer figures every workload reports the same way.
struct RunLayers {
  /// The engine's metrics snapshot (MetricsRegistry::snapshot_json, flat).
  std::map<std::string, double> snapshot;
  ProcSample p0, p1;  ///< the engine's process at the measured interval's ends
  double verdicts = 0.0;  ///< verdicts in the measured interval
  double send_blocked_frac = 0.0;
  const CountLog* log = nullptr;
  Clock::time_point t_m0{}, t_half{}, t_m1{};  ///< untraced half, traced half
};
/// Batch mean and worker skew from the per-worker packet and batch counters,
/// the exported latency histograms, model hits with their base, network
/// stalls, the process's CPU split and context switches, the load side's
/// blocked share, and the tracing overhead between the two halves.
void put_run_layers(const RunLayers& in, Result& r);

/// Inputs of the traced run's layer walk (walk.cpp).
struct WalkInput {
  const std::vector<std::vector<sift::wiot::Packet>>* traces = nullptr;
  sift::fleet::ModelProvider models;
  sift::fleet::FleetConfig fleet;  ///< engine shape for the ingest phase
  std::string work_dir;
  double ingest_seconds = 1.0;
  std::string span_csv;  ///< where the spans are written
};

/// Replays the workload's packets stage by stage on this thread, then times
/// ingest, checkpoint, recovery, model-store warm-load and session memory.
/// Adds the per-layer metrics to @p out.
void run_layer_walk(const WalkInput& in, Result& out);

Result run_fleet_inproc(const Options& opt);
Result run_gateway_paced(const Options& opt);

}  // namespace perfbench
