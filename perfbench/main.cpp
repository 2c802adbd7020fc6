// The benchmark program. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --siftctl PATH --work-dir DIR --out-dir DIR
//
// Runs one workload, checks its outputs against a single-thread reference,
// prints one line per metric (value, unit, sample count) and, last, the
// result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "simd/simd.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet-inproc|gateway-paced "
               "--seed N --seconds S --trace 0|1 --siftctl PATH "
               "--work-dir DIR --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--siftctl") {
        opt.siftctl = value;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.work_dir.empty() || opt.out_dir.empty() ||
      opt.seconds < 2) {
    return usage();
  }
  std::fprintf(stderr, "perfbench: host nproc=%u simd=%s\n",
               std::thread::hardware_concurrency(),
               sift::simd::to_string(sift::simd::active_level()));

  namespace fs = std::filesystem;
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  fs::create_directories(opt.out_dir);
  perfbench::Result result;
  try {
    if (opt.workload == "fleet-inproc") {
      result = perfbench::run_fleet_inproc(opt);
    } else if (opt.workload == "gateway-paced") {
      result = perfbench::run_gateway_paced(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    fs::remove_all(opt.work_dir);
    return 1;
  }
  fs::remove_all(opt.work_dir);

  for (const auto& note : result.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  for (const auto& [name, m] : result.details) {
    std::printf("detail %-40s %14.6g %-6s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
    std::printf("metric %-40s %14.6g %-6s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}
