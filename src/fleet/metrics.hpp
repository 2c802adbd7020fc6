// Built-in observability for the fleet runtime.
//
// The detection engine is only operable at scale if throughput, queue
// depth, drop rate, and tail latency are visible without attaching a
// profiler — *Towards Robust IoT Defense* makes the same point for
// resource-constrained detection: evaluation under load needs explicit
// drop/latency accounting. All instruments are lock-free on the write
// path (relaxed atomics); a snapshot is a consistent-enough JSON export
// for dashboards and the `siftctl fleet` report.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sift::fleet {

/// Monotonic event count (packets ingested, windows classified, drops...).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, resident sessions/models).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram (microseconds). Buckets are log-spaced
/// 1-2-5 from 1 µs to 10 s — wide enough for a queue-wait tail on a loaded
/// host, fine enough to resolve a sub-millisecond classify. Quantiles are
/// linearly interpolated inside the owning bucket, which is the standard
/// Prometheus-style estimate.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 22;

  /// Upper bound of each bucket in µs; the last bucket is open-ended.
  static const std::array<double, kBuckets>& bounds_us();

  void observe_us(double us) noexcept;
  /// Unit-agnostic alias: the same 1-2-5 buckets resolve counts (batch
  /// sizes, depths) just as well as microseconds.
  void observe(double v) noexcept { observe_us(v); }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double mean_us() const noexcept;
  /// @param q in [0, 1]; returns 0 when the histogram is empty.
  double quantile_us(double q) const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Names instruments and serialises them. Instruments are created on first
/// use and live for the registry's lifetime, so hot paths hold plain
/// references and never touch the registry lock after setup.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);
  /// A histogram of unit-less sizes (e.g. envelopes per drained batch):
  /// same buckets, but serialised without the _us suffix.
  LatencyHistogram& size_histogram(const std::string& name);

  /// One flat JSON object, keys sorted; histograms expand to
  /// name.count / name.mean_us / name.p50_us / name.p90_us / name.p99_us
  /// (size histograms use .mean / .p50 / .p90 / .p99).
  std::string snapshot_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> size_histograms_;
};

/// Sets three gauges per thread name of this process from
/// /proc/self/task/*/{comm,schedstat,status}: `<prefix><name>.run_us`
/// (on-CPU time), `.vcsw` and `.ivcsw` (voluntary and involuntary context
/// switches), each since the thread started and summed over the threads
/// that share the name. A thread that has exited is gone from /proc, so
/// call this before joining the threads of interest. Sets nothing where
/// /proc is absent; run_us reads 0 on a kernel without schedstats.
void record_thread_cpu(MetricsRegistry& registry, const std::string& prefix);

}  // namespace sift::fleet
