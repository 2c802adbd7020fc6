#include "fleet/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace sift::fleet {

const std::array<double, LatencyHistogram::kBuckets>&
LatencyHistogram::bounds_us() {
  // 1-2-5 series: 1 µs .. 10 s.
  static const std::array<double, kBuckets> kBounds = {
      1,     2,     5,      10,     20,     50,      100,      200,
      500,   1e3,   2e3,    5e3,    1e4,    2e4,     5e4,      1e5,
      2e5,   5e5,   1e6,    2e6,    5e6,    1e7};
  return kBounds;
}

void LatencyHistogram::observe_us(double us) noexcept {
  if (!(us >= 0.0)) us = 0.0;  // negative or NaN clocks land in bucket 0
  const auto& bounds = bounds_us();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), us);
  const std::size_t idx = static_cast<std::size_t>(it - bounds.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(static_cast<std::uint64_t>(us), std::memory_order_relaxed);
}

double LatencyHistogram::mean_us() const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

double LatencyHistogram::quantile_us(double q) const noexcept {
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  const auto& bounds = bounds_us();
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    const std::uint64_t in_bucket =
        buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // The open-ended overflow bucket has no upper bound; report its floor.
      if (i == kBuckets) return bounds[kBuckets - 1];
      const double hi = bounds[i];
      const double into =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bounds[kBuckets - 1];
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::size_histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = size_histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

namespace {

void append_number(std::string& out, double v) {
  char buf[32];
  // Trim to a stable short form: integers print bare, reals with 3 places.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", v);
  }
  out += buf;
}

void append_entry(std::string& out, bool& first, const std::string& key,
                  double value) {
  out += first ? "\n  \"" : ",\n  \"";
  first = false;
  out += key;
  out += "\": ";
  append_number(out, value);
}

}  // namespace

std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    append_entry(out, first, name, static_cast<double>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    append_entry(out, first, name, static_cast<double>(g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    append_entry(out, first, name + ".count",
                 static_cast<double>(h->count()));
    append_entry(out, first, name + ".mean_us", h->mean_us());
    append_entry(out, first, name + ".p50_us", h->quantile_us(0.50));
    append_entry(out, first, name + ".p90_us", h->quantile_us(0.90));
    append_entry(out, first, name + ".p99_us", h->quantile_us(0.99));
  }
  for (const auto& [name, h] : size_histograms_) {
    append_entry(out, first, name + ".count",
                 static_cast<double>(h->count()));
    append_entry(out, first, name + ".mean", h->mean_us());
    append_entry(out, first, name + ".p50", h->quantile_us(0.50));
    append_entry(out, first, name + ".p90", h->quantile_us(0.90));
    append_entry(out, first, name + ".p99", h->quantile_us(0.99));
  }
  out += "\n}";
  return out;
}

void record_thread_cpu(MetricsRegistry& registry, const std::string& prefix) {
  struct Totals {
    std::uint64_t run_ns = 0;
    std::uint64_t vcsw = 0;
    std::uint64_t ivcsw = 0;
  };
  std::map<std::string, Totals> by_name;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::string name;
    if (!std::getline(std::ifstream(task.path() / "comm"), name)) continue;
    Totals& totals = by_name[name];
    // schedstat: "<ns on cpu> <ns waiting on a runqueue> <timeslices>".
    if (std::uint64_t run_ns = 0;
        std::ifstream(task.path() / "schedstat") >> run_ns) {
      totals.run_ns += run_ns;
    }
    std::ifstream status(task.path() / "status");
    for (std::string line; std::getline(status, line);) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string key = line.substr(0, colon);
      if (key == "voluntary_ctxt_switches") {
        totals.vcsw += std::stoull(line.substr(colon + 1));
      } else if (key == "nonvoluntary_ctxt_switches") {
        totals.ivcsw += std::stoull(line.substr(colon + 1));
      }
    }
  }
  for (const auto& [name, totals] : by_name) {
    const std::string base = prefix + name;
    registry.gauge(base + ".run_us")
        .set(static_cast<std::int64_t>(totals.run_ns / 1000));
    registry.gauge(base + ".vcsw")
        .set(static_cast<std::int64_t>(totals.vcsw));
    registry.gauge(base + ".ivcsw")
        .set(static_cast<std::int64_t>(totals.ivcsw));
  }
}

}  // namespace sift::fleet
