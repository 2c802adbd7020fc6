// siftctl — command-line front end for the SIFT library.
//
// Drives the whole pipeline from a shell, the way a downstream user (or a
// provisioning server feeding Amulets) would:
//
//   siftctl cohort [n] [seed]                    list the synthetic cohort
//   siftctl cohort gen [opts]             synthesise per-user compressed
//                                         signal archives into a directory
//   siftctl cohort extract [opts]         stream archives through the
//                                         window walk + dedup (no training)
//   siftctl cohort train [opts]           full offline pipeline: archives
//                                         in, sharded model store out
//   siftctl synth <user> <seconds> <out.csv>     generate a coupled trace
//   siftctl peaks <trace.csv>                    run-time peak detection
//   siftctl train <wearer.csv> <donor.csv>... -o <model.txt> [-v VERSION]
//   siftctl detect <model.txt> <trace.csv>       classify every window
//   siftctl attack <victim.csv> <donor.csv> <out.csv> [fraction]
//   siftctl attack-matrix [opts]          score the full attack corpus
//                                         against all three detector tiers
//   siftctl emit-c <model.txt>                   Amulet-C translation unit
//   siftctl emit-qm <model.txt>                  QM model XML
//   siftctl check <source.c> [--no-libm]         Amulet-C static checker
//   siftctl profile <model.txt> <trace.csv>      ARP-view resource profile
//   siftctl fleet [opts]                  replay a cohort through the fleet
//                                         engine, print a metrics report
//   siftctl serve [opts]                  run the network ingest gateway
//   siftctl drive [opts]                  closed-loop load driver against
//                                         a running gateway (--chaos-net
//                                         for wire-fault chaos senders)
//   siftctl journal-dump <dir>            print a checkpoint dir's merged
//                                         verdict journal
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amulet/amulet_c_check.hpp"
#include "cohort/archive.hpp"
#include "cohort/model_store.hpp"
#include "cohort/trainer.hpp"
#include "amulet/app_codegen.hpp"
#include "amulet/profiler.hpp"
#include "attack/attack.hpp"
#include "attack/scenario.hpp"
#include "core/attack_matrix.hpp"
#include "core/detector.hpp"
#include "core/trainer.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/engine.hpp"
#include "fleet/faults.hpp"
#include "fleet/replay.hpp"
#include "io/csv.hpp"
#include "io/model_file.hpp"
#include "net/client.hpp"
#include "net/packet_pool.hpp"
#include "net/server.hpp"
#include "peaks/pan_tompkins.hpp"
#include "peaks/systolic.hpp"
#include "physio/dataset.hpp"
#include "simd/simd.hpp"

namespace {

using namespace sift;

int usage() {
  std::fprintf(stderr,
               "usage: siftctl <command> [args]\n"
               "  cohort [n] [seed]\n"
               "  cohort gen --out DIR [--users N] [--seconds S]\n"
               "        [--seed S] [--dup-frac F]\n"
               "        write per-user compressed archives uNNNNNN.arc\n"
               "  cohort extract --archives DIR [--workers N] [--donors K]\n"
               "        stream + window walk + dedup, print counters\n"
               "  cohort train --archives DIR --store DIR [--workers N]\n"
               "        [--donors K]  train all three tiers per user into\n"
               "        a sharded model store + warm-load manifest\n"
               "  synth <user-index> <seconds> <out.csv> [seed] [salt]\n"
               "  peaks <trace.csv>\n"
               "  train <wearer.csv> <donor.csv>... -o <model.txt>"
               " [-v Original|Simplified|Reduced]\n"
               "  detect <model.txt> <trace.csv>\n"
               "  attack <victim.csv> <donor.csv> <out.csv> [fraction]\n"
               "  attack-matrix [--users N] [--seed S] [--train-s S]\n"
               "        [--test-s S] [--fpr-budget F] [--json PATH]\n"
               "        [--md PATH] [--smoke]\n"
               "        runs every attack family against every detector\n"
               "        tier; markdown to stdout, JSON snapshot to --json.\n"
               "        --smoke is the reduced CI corpus (4 users, 4 min\n"
               "        training)\n"
               "  emit-c <model.txt>\n"
               "  emit-qm <model.txt>\n"
               "  check <source.c> [--no-libm]\n"
               "  profile <model.txt> <trace.csv>\n"
               "  fleet [--sessions N] [--seconds S] [--workers N]\n"
               "        (--workers 0, the default, runs one worker per\n"
               "         core; explicit counts are clamped to the cores\n"
               "         actually present)\n"
               "        [--pin-cores]    pin worker w to CPU core w\n"
               "        [--shards N] [--queue-capacity N] [--producers N]\n"
               "        [--policy block|drop-oldest] [--models K]\n"
               "        [--chaos SEED]   inject a deterministic fault schedule\n"
               "                         (corruption, provider failures,\n"
               "                         worker throws, overload bursts)\n"
               "        [--checkpoint-dir DIR]  journal every verdict and\n"
               "                         checkpoint session state into DIR\n"
               "        [--checkpoint-interval MS]  cadence (default 500)\n"
               "        [--recover]      restore DIR's newest checkpoint and\n"
               "                         resume the replay past its cursors\n"
               "        [--model-store DIR]  serve detection models from a\n"
               "                         `cohort train` store (manifest\n"
               "                         warm-load; sessions map onto the\n"
               "                         manifest round-robin)\n"
               "  serve --listen ADDR   network ingest gateway (ADDR is\n"
               "                         unix:PATH or tcp:HOST:PORT; port 0\n"
               "                         picks an ephemeral port)\n"
               "        [--models K] [--train-seconds S] [--seed N]\n"
               "        [--workers N]    0 (default) = one per core, clamped\n"
               "        [--pin-cores] [--shards N] [--queue-capacity N]\n"
               "        [--policy block|drop-oldest]\n"
               "        [--max-connections N] [--idle-timeout-ms MS]\n"
               "        [--stall-timeout-ms MS]  reap write-stalled /\n"
               "                         backpressure-parked peers (0 =\n"
               "                         4 x idle timeout)\n"
               "        [--rate-limit PPS]  per-connection leaky bucket;\n"
               "                         over-rate packets are shed and\n"
               "                         charge anti-replay suspicion\n"
               "        [--accept-burst N]  accepts per listener wakeup\n"
               "        [--checkpoint-dir DIR] [--checkpoint-interval MS]\n"
               "        [--recover]\n"
               "        [--model-store DIR]  skip in-process training and\n"
               "                         serve models from a `cohort train`\n"
               "                         store (manifest warm-load)\n"
               "        SIGTERM/SIGINT drain gracefully and print a final\n"
               "        metrics snapshot on stdout\n"
               "  drive --connect ADDR  closed-loop load driver\n"
               "        [--connections N] [--users N] [--seconds S]\n"
               "        [--rate HZ] [--models K] [--seed N]\n"
               "        [--samples-per-packet N] [--settle-timeout-ms MS]\n"
               "        [--chaos-net SEED]  run every connection through a\n"
               "                         deterministic wire-fault shim\n"
               "                         (partial writes, stalls, resets,\n"
               "                         mid-frame kills) with reconnect-\n"
               "                         with-resume senders\n"
               "        [--resume]       resuming senders on a clean wire\n"
               "                         (survives gateway restarts)\n"
               "        exits nonzero unless every packet sent was accounted\n"
               "        for by the server\n"
               "  journal-dump <dir>    print a checkpoint dir's merged\n"
               "                        verdict journal, one line per\n"
               "                        record in per-user seq order\n");
  return 2;
}

core::DetectorVersion parse_version(const std::string& s) {
  if (s == "Original") return core::DetectorVersion::kOriginal;
  if (s == "Simplified") return core::DetectorVersion::kSimplified;
  if (s == "Reduced") return core::DetectorVersion::kReduced;
  throw std::runtime_error("unknown version '" + s + "'");
}

std::string archive_name(int user_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "u%06d.arc", user_id);
  return buf;
}

/// User ids present in an archive directory (uNNNNNN.arc), ascending.
std::vector<int> list_archive_ids(const std::string& dir) {
  std::vector<int> ids;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 5 || name.front() != 'u' ||
        name.substr(name.size() - 4) != ".arc") {
      continue;
    }
    ids.push_back(std::stoi(name.substr(1, name.size() - 5)));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

int cmd_cohort_gen(std::span<const std::string> args) {
  std::string out_dir;
  std::size_t users = 256;
  double seconds = 24.0;
  std::uint64_t seed = 2017;
  double dup_frac = 0.0;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--users") {
      users = std::stoul(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--dup-frac") {
      dup_frac = std::stod(value);
    } else {
      return usage();
    }
  }
  if (out_dir.empty() || users == 0) return usage();
  std::filesystem::create_directories(out_dir);

  const core::SiftConfig sift_config;
  const auto window_samples = static_cast<std::size_t>(
      std::lround(sift_config.window_s * physio::kDefaultRateHz));
  const auto stride_samples = static_cast<std::size_t>(
      std::lround(sift_config.train_stride_s * physio::kDefaultRateHz));

  const auto profiles = physio::synthetic_cohort(users, seed);
  std::uint64_t archive_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t duplicates = 0;
  for (std::size_t u = 0; u < users; ++u) {
    physio::Record record = physio::generate_record(
        profiles[u], seconds, physio::kDefaultRateHz, /*salt=*/u);
    if (dup_frac > 0.0) {
      duplicates += physio::inject_duplicate_windows(
          record, window_samples, stride_samples, dup_frac,
          seed ^ static_cast<std::uint64_t>(u));
    }
    const auto bytes =
        cohort::encode_archive(record, cohort::kDefaultChunkSamples);
    raw_bytes += record.ecg.size() * 2 * sizeof(double);
    archive_bytes += bytes.size();
    io::write_file_atomic(
        out_dir + "/" + archive_name(static_cast<int>(u)), bytes);
  }
  std::printf(
      "cohort gen: %zu archives x %.0f s -> %s (%.1f MB, %.2fx vs raw "
      "samples, %llu duplicate windows injected)\n",
      users, seconds, out_dir.c_str(),
      static_cast<double>(archive_bytes) / 1.0e6,
      archive_bytes > 0
          ? static_cast<double>(raw_bytes) /
                static_cast<double>(archive_bytes)
          : 0.0,
      static_cast<unsigned long long>(duplicates));
  return 0;
}

/// Shared flag parsing + pipeline setup for `cohort extract` / `cohort
/// train`: archives come from a directory written by `cohort gen` (or a
/// real provisioning pipeline), behind a small LRU that absorbs the donor
/// pattern's re-reads.
struct CohortRunArgs {
  std::string archives_dir;
  std::string store_dir;  // train only
  cohort::CohortConfig config;
};

std::optional<CohortRunArgs> parse_cohort_run(
    std::span<const std::string> args, bool wants_store) {
  CohortRunArgs out;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    if (flag == "--archives") {
      out.archives_dir = value;
    } else if (flag == "--store" && wants_store) {
      out.store_dir = value;
    } else if (flag == "--workers") {
      out.config.workers = std::max<std::size_t>(1, std::stoul(value));
    } else if (flag == "--donors") {
      out.config.donors_per_user = std::stoul(value);
    } else {
      return std::nullopt;
    }
  }
  if (out.archives_dir.empty() || (wants_store && out.store_dir.empty())) {
    return std::nullopt;
  }
  return out;
}

void print_cohort_stats(const cohort::CohortStats& stats, double elapsed_s) {
  std::printf(
      "  %llu windows walked, %llu duplicate(s) dropped (%llu hash "
      "collision(s) kept), %llu unique rows, %.0f windows/s\n",
      static_cast<unsigned long long>(stats.windows_extracted),
      static_cast<unsigned long long>(stats.dedup_hits),
      static_cast<unsigned long long>(stats.hash_collisions),
      static_cast<unsigned long long>(stats.rows_stored),
      elapsed_s > 0.0
          ? static_cast<double>(stats.windows_extracted) / elapsed_s
          : 0.0);
}

int cmd_cohort_extract(std::span<const std::string> args) {
  const auto run = parse_cohort_run(args, /*wants_store=*/false);
  if (!run) return usage();
  const auto ids = list_archive_ids(run->archives_dir);
  if (ids.empty()) {
    std::fprintf(stderr, "cohort extract: no uNNNNNN.arc files in %s\n",
                 run->archives_dir.c_str());
    return 1;
  }
  cohort::CachingArchiveSource archives(
      [dir = run->archives_dir](int user_id) {
        return io::read_file_bytes(dir + "/" + archive_name(user_id));
      },
      std::max<std::size_t>(
          16, run->config.workers * (run->config.donors_per_user + 2)));
  cohort::CohortTrainer trainer(archives.as_source(), run->config);
  const auto start = std::chrono::steady_clock::now();
  const auto stats = trainer.extract_only(ids);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("cohort extract: %zu users over %zu worker(s) in %.2f s\n",
              ids.size(), run->config.workers, secs);
  print_cohort_stats(stats, secs);
  return 0;
}

int cmd_cohort_train(std::span<const std::string> args) {
  const auto run = parse_cohort_run(args, /*wants_store=*/true);
  if (!run) return usage();
  const auto ids = list_archive_ids(run->archives_dir);
  if (ids.empty()) {
    std::fprintf(stderr, "cohort train: no uNNNNNN.arc files in %s\n",
                 run->archives_dir.c_str());
    return 1;
  }
  cohort::CachingArchiveSource archives(
      [dir = run->archives_dir](int user_id) {
        return io::read_file_bytes(dir + "/" + archive_name(user_id));
      },
      std::max<std::size_t>(
          16, run->config.workers * (run->config.donors_per_user + 2)));
  cohort::CohortTrainer trainer(archives.as_source(), run->config);
  const cohort::ModelStore store(run->store_dir);
  const auto start = std::chrono::steady_clock::now();
  const auto stats = trainer.train(ids, store);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf(
      "cohort train: %llu users -> %llu models in %s (%zu shards, "
      "%.1f users/s over %zu worker(s))\n",
      static_cast<unsigned long long>(stats.users_trained),
      static_cast<unsigned long long>(stats.models_written),
      run->store_dir.c_str(), store.shards(),
      secs > 0.0 ? static_cast<double>(stats.users_trained) / secs : 0.0,
      run->config.workers);
  print_cohort_stats(stats, secs);
  return 0;
}

int cmd_cohort(std::span<const std::string> args) {
  if (!args.empty()) {
    if (args[0] == "gen") return cmd_cohort_gen(args.subspan(1));
    if (args[0] == "extract") return cmd_cohort_extract(args.subspan(1));
    if (args[0] == "train") return cmd_cohort_train(args.subspan(1));
  }
  const std::size_t n = args.size() > 0 ? std::stoul(args[0]) : 12;
  const std::uint64_t seed = args.size() > 1 ? std::stoull(args[1]) : 2017;
  std::printf("%-4s %-12s %6s %8s %8s %8s\n", "id", "name", "age", "HR",
              "SBP", "DBP");
  for (const auto& u : physio::synthetic_cohort(n, seed)) {
    std::printf("%-4d %-12s %6.0f %8.1f %8.0f %8.0f\n", u.user_id,
                u.name.c_str(), u.age_years, u.rr.mean_hr_bpm,
                u.abp.diastolic_mmhg + u.abp.pulse_pressure_mmhg,
                u.abp.diastolic_mmhg);
  }
  return 0;
}

int cmd_synth(std::span<const std::string> args) {
  if (args.size() < 3) return usage();
  const auto user_index = std::stoul(args[0]);
  const double seconds = std::stod(args[1]);
  const std::string out = args[2];
  const std::uint64_t seed = args.size() > 3 ? std::stoull(args[3]) : 2017;
  const std::uint64_t salt = args.size() > 4 ? std::stoull(args[4]) : 0;

  const auto cohort = physio::synthetic_cohort(
      std::max<std::size_t>(12, user_index + 1), seed);
  const auto record =
      physio::generate_record(cohort[user_index], seconds,
                              physio::kDefaultRateHz, salt);
  io::save_record_csv(out, record);
  std::printf("wrote %s: %.0f s, %zu samples, %zu R peaks, %zu systolic\n",
              out.c_str(), seconds, record.ecg.size(), record.r_peaks.size(),
              record.systolic_peaks.size());
  return 0;
}

int cmd_peaks(std::span<const std::string> args) {
  if (args.size() != 1) return usage();
  const auto record = io::load_record_csv(args[0]);
  const auto r = peaks::detect_r_peaks(record.ecg);
  const auto s = peaks::detect_systolic_peaks(record.abp);
  std::printf("run-time detection: %zu R peaks (annotated: %zu), "
              "%zu systolic (annotated: %zu)\n",
              r.size(), record.r_peaks.size(), s.size(),
              record.systolic_peaks.size());
  return 0;
}

int cmd_train(std::span<const std::string> args) {
  std::vector<std::string> csvs;
  std::string out;
  core::SiftConfig config;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) {
      out = args[++i];
    } else if (args[i] == "-v" && i + 1 < args.size()) {
      config.version = parse_version(args[++i]);
    } else {
      csvs.push_back(args[i]);
    }
  }
  if (out.empty() || csvs.size() < 2) return usage();

  const auto wearer = io::load_record_csv(csvs[0]);
  std::vector<physio::Record> donors;
  for (std::size_t i = 1; i < csvs.size(); ++i) {
    donors.push_back(io::load_record_csv(csvs[i]));
  }
  const auto model = core::train_user_model(wearer, donors, config);
  io::save_user_model(out, model);
  std::printf("trained %s model (%zu features) -> %s\n",
              core::to_string(config.version), model.svm.w.size(),
              out.c_str());
  return 0;
}

int cmd_detect(std::span<const std::string> args) {
  if (args.size() != 2) return usage();
  const auto model = io::load_user_model(args[0]);
  const auto trace = io::load_record_csv(args[1]);
  const core::Detector detector(model);
  const auto verdicts = detector.classify_record(trace);
  std::size_t alerts = 0;
  for (std::size_t w = 0; w < verdicts.size(); ++w) {
    if (verdicts[w].altered) ++alerts;
    std::printf("window %3zu [%6.1fs]: %-7s margin %+8.3f%s\n", w,
                w * model.config.window_s,
                verdicts[w].altered ? "ALERT" : "ok",
                verdicts[w].decision_value,
                verdicts[w].peak_check_failed ? "  (peak check failed)" : "");
  }
  std::printf("%zu/%zu windows alerted\n", alerts, verdicts.size());
  return 0;
}

int cmd_attack(std::span<const std::string> args) {
  if (args.size() < 3) return usage();
  const auto victim = io::load_record_csv(args[0]);
  const auto donor = io::load_record_csv(args[1]);
  const double fraction = args.size() > 3 ? std::stod(args[3]) : 0.5;

  attack::SubstitutionAttack substitution;
  const std::vector<physio::Record> donors{donor};
  const auto window =
      static_cast<std::size_t>(3.0 * victim.ecg.sample_rate_hz());
  const auto attacked = attack::corrupt_windows(victim, donors, substitution,
                                                fraction, window, 1);
  io::save_record_csv(args[2], attacked.record);
  std::size_t altered = 0;
  for (bool b : attacked.window_altered) altered += b ? 1 : 0;
  std::printf("wrote %s: %zu/%zu windows substituted\n", args[2].c_str(),
              altered, attacked.window_altered.size());
  return 0;
}

int cmd_attack_matrix(std::span<const std::string> args) {
  core::AttackMatrixConfig config;
  std::string json_path;
  std::string md_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--smoke") {
      // The CI corpus: small enough to finish in single-digit minutes, big
      // enough that every attack family still has both classes per user.
      config.experiment.n_users = 4;
      config.experiment.train_duration_s = 240.0;
      config.experiment.test_duration_s = 120.0;
      continue;
    }
    if (i + 1 >= args.size()) return usage();
    const std::string& value = args[++i];
    if (flag == "--users") {
      config.experiment.n_users = std::stoul(value);
    } else if (flag == "--seed") {
      config.experiment.cohort_seed = std::stoull(value);
    } else if (flag == "--train-s") {
      config.experiment.train_duration_s = std::stod(value);
    } else if (flag == "--test-s") {
      config.experiment.test_duration_s = std::stod(value);
    } else if (flag == "--fpr-budget") {
      config.fpr_budget = std::stod(value);
    } else if (flag == "--json") {
      json_path = value;
    } else if (flag == "--md") {
      md_path = value;
    } else {
      return usage();
    }
  }

  const auto result = core::run_attack_matrix(config);
  const std::string markdown = core::attack_matrix_markdown(result);
  std::fputs(markdown.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os.good()) throw std::runtime_error("cannot open " + json_path);
    os << core::attack_matrix_json(result);
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  if (!md_path.empty()) {
    std::ofstream os(md_path);
    if (!os.good()) throw std::runtime_error("cannot open " + md_path);
    os << markdown;
    std::fprintf(stderr, "wrote %s\n", md_path.c_str());
  }
  return 0;
}

int cmd_emit_c(std::span<const std::string> args) {
  if (args.size() != 1) return usage();
  std::cout << amulet::emit_amulet_app_c(io::load_user_model(args[0]));
  return 0;
}

int cmd_emit_qm(std::span<const std::string> args) {
  if (args.size() != 1) return usage();
  const auto model = io::load_user_model(args[0]);
  std::cout << amulet::emit_qm_model_xml("SiftDetector",
                                         model.config.version);
  return 0;
}

int cmd_check(std::span<const std::string> args) {
  if (args.empty()) return usage();
  // The check gates code destined for scalar-only MCUs, so surface what the
  // *host* pipeline dispatches to — the two must not be conflated.
  std::printf("host simd: %s (available:", simd::to_string(simd::active_level()));
  for (const auto level : simd::available_levels()) {
    std::printf(" %s", simd::to_string(level));
  }
  std::printf(")\n");
  std::ifstream is(args[0]);
  if (!is.good()) throw std::runtime_error("cannot open " + args[0]);
  std::stringstream ss;
  ss << is.rdbuf();
  amulet::AmuletCCheckOptions options;
  if (args.size() > 1 && args[1] == "--no-libm") {
    options.allow_math_library = false;
  }
  const auto violations = amulet::check_amulet_c(ss.str(), options);
  for (const auto& v : violations) {
    std::printf("%s:%zu: [%s] %s\n", args[0].c_str(), v.line,
                amulet::to_string(v.rule), v.excerpt.c_str());
  }
  std::printf("%zu violation(s)\n", violations.size());
  return violations.empty() ? 0 : 1;
}

int cmd_profile(std::span<const std::string> args) {
  if (args.size() != 2) return usage();
  const auto model = io::load_user_model(args[0]);
  const auto trace = io::load_record_csv(args[1]);
  amulet::Scheduler scheduler;
  amulet::SiftApp app(model, trace, scheduler);
  scheduler.add_app(app);
  amulet::run_app_over_trace(app, scheduler);
  std::cout << amulet::format_arp_view(
      amulet::profile_app(app, amulet::EnergyModel{}, model.config.window_s));
  return 0;
}

/// Flags `fleet` and `serve` share: engine shape, durability and the model
/// store.
struct EngineArgs {
  fleet::FleetConfig config;
  std::string checkpoint_dir;
  std::size_t checkpoint_interval_ms = 500;
  std::string model_store_dir;
  bool recover = false;

  /// Consumes args[i] (and its value, advancing @p i) when it is a shared
  /// flag. Returns false otherwise, including for a shared flag whose
  /// value is missing. @throws std::invalid_argument on an unknown policy.
  bool parse(std::span<const std::string> args, std::size_t& i) {
    const std::string& flag = args[i];
    if (flag == "--recover") {
      recover = true;
      return true;
    }
    if (flag == "--pin-cores") {
      config.pin_cores = true;
      return true;
    }
    if (i + 1 >= args.size()) return false;
    const std::string& value = args[i + 1];
    if (flag == "--workers") {
      config.workers = std::stoul(value);
    } else if (flag == "--shards") {
      config.shards = std::stoul(value);
    } else if (flag == "--queue-capacity") {
      config.queue_capacity = std::stoul(value);
    } else if (flag == "--checkpoint-dir") {
      checkpoint_dir = value;
    } else if (flag == "--checkpoint-interval") {
      checkpoint_interval_ms = std::stoul(value);
    } else if (flag == "--model-store") {
      model_store_dir = value;
    } else if (flag == "--policy") {
      if (value == "block") {
        config.backpressure = fleet::BackpressurePolicy::kBlock;
      } else if (value == "drop-oldest") {
        config.backpressure = fleet::BackpressurePolicy::kDropOldest;
      } else {
        throw std::invalid_argument("--policy must be block or drop-oldest");
      }
    } else {
      return false;
    }
    ++i;
    return true;
  }

  /// --checkpoint-dir: creates DIR and journals every verdict into it.
  void attach_durability(std::optional<fleet::durable::Durability>& out) {
    if (checkpoint_dir.empty()) return;
    std::filesystem::create_directories(checkpoint_dir);
    out.emplace(checkpoint_dir);
    config.durability = &*out;
  }
};

/// Detection models from a `cohort train` store: users map onto the
/// manifest round-robin, so any number of sessions can share it.
struct StoreModels {
  std::string dir;
  std::vector<int> manifest;
  fleet::TieredModelProvider provider;

  /// Returns nullopt (after saying why) when @p dir has no manifest;
  /// otherwise sizes @p config's model cache to hold the whole manifest.
  static std::optional<StoreModels> open(const char* cmd,
                                         const std::string& dir,
                                         fleet::FleetConfig& config) {
    const cohort::ModelStore store(dir);
    StoreModels models{dir, store.read_manifest(), {}};
    if (models.manifest.empty()) {
      std::fprintf(stderr, "%s: no manifest in %s (run siftctl cohort "
                   "train first)\n", cmd, dir.c_str());
      return std::nullopt;
    }
    config.model_cache_capacity = models.manifest.size();
    models.provider = [inner = store.provider(), ids = models.manifest](
                          int user_id, core::DetectorVersion version) {
      return inner(ids[static_cast<std::size_t>(user_id) % ids.size()],
                   version);
    };
    return models;
  }

  /// Loads every manifest model into the registry before traffic starts.
  void warm_load(const char* cmd, fleet::FleetEngine& engine) const {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t warm =
        engine.models().warm_load(manifest, core::DetectorVersion::kOriginal);
    std::fprintf(
        stderr, "%s: warm-loaded %zu/%zu model(s) from %s in %.0f ms\n", cmd,
        warm, manifest.size(), dir.c_str(),
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
};

/// Background checkpoint cadence, the way a deployment would run it: the
/// snapshot thread races live ingest on purpose (checkpoints are taken
/// under the shard locks, so this is safe by construction). Idle without
/// a durability layer.
std::jthread start_checkpointer(fleet::durable::Durability* durability,
                                fleet::FleetEngine& engine,
                                std::size_t interval_ms) {
  if (durability == nullptr) return {};
  const auto interval =
      std::chrono::milliseconds(std::max<std::size_t>(1, interval_ms));
  return std::jthread([durability, &engine, interval](std::stop_token stop) {
    while (!stop.stop_requested()) {
      std::this_thread::sleep_for(interval);
      if (stop.stop_requested()) break;
      durability->checkpoint(engine);
    }
  });
}

int cmd_fleet(std::span<const std::string> args) {
  fleet::ReplayConfig replay;
  EngineArgs shared;
  fleet::FleetConfig& config = shared.config;
  std::size_t producers = 4;
  bool chaos = false;
  std::uint64_t chaos_seed = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (shared.parse(args, i)) continue;
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) return usage();
    const std::string& value = args[++i];
    if (flag == "--sessions") {
      replay.sessions = std::stoul(value);
    } else if (flag == "--seconds") {
      replay.seconds = std::stod(value);
    } else if (flag == "--producers") {
      producers = std::stoul(value);
    } else if (flag == "--models") {
      replay.distinct_users = std::stoul(value);
    } else if (flag == "--chaos") {
      chaos = true;
      chaos_seed = std::stoull(value);
    } else {
      return usage();
    }
  }
  if (shared.recover && shared.checkpoint_dir.empty()) {
    std::fprintf(stderr, "fleet: --recover needs --checkpoint-dir\n");
    return usage();
  }
  config.model_cache_capacity = std::max<std::size_t>(1, replay.distinct_users);
  replay.train_all_tiers = chaos;  // chaos exercises the degradation ladder

  // With a model store the fixture is only the packet synthesiser, so its
  // own (unused) model training is cut to the minimum the build path
  // accepts.
  std::optional<StoreModels> store;
  if (!shared.model_store_dir.empty()) {
    store = StoreModels::open("fleet", shared.model_store_dir, config);
    if (!store) return 1;
    replay.train_seconds = 12.0;
  }

  std::fprintf(stderr,
               "fleet: training %zu model(s)%s, synthesising %zu session(s) "
               "of %.0f s...\n",
               replay.distinct_users, chaos ? " x3 tiers" : "",
               replay.sessions, replay.seconds);
  const auto fixture = fleet::ReplayFixture::build(replay);

  std::unique_ptr<fleet::FaultInjector> injector;
  if (chaos) {
    // A representative schedule touching every injection point: the first
    // few sessions get payload corruption, the next few a flaky provider
    // and worker throws, and shard 0 an overload burst that forces the
    // shed ladder down.
    fleet::FaultConfig fc;
    fc.seed = chaos_seed;
    const int n = static_cast<int>(replay.sessions);
    for (int u = 0; u < n && u < 4; ++u) fc.payload_users.push_back(u);
    for (int u = 4; u < n && u < 6; ++u) fc.provider_fail_users.push_back(u);
    for (int u = 6; u < n && u < 8; ++u) fc.worker_throw_users.push_back(u);
    fc.nan_probability = 0.05;
    fc.corrupt_probability = 0.05;
    fc.truncate_probability = 0.05;
    fc.seq_skew_probability = 0.02;
    fc.provider_failures_per_user = 2;
    fc.worker_throws_per_user = 8;
    fc.overload_shards.push_back(0);
    fc.overload_from_dequeue = 16;
    fc.overload_until_dequeue = 96;
    fc.overload_forced_depth = config.queue_capacity;
    injector = std::make_unique<fleet::FaultInjector>(fc);
    config.injector = injector.get();
    config.load_shed.enabled = true;
    config.load_shed.high_watermark = config.queue_capacity / 2;
  }

  std::optional<fleet::durable::Durability> durability;
  shared.attach_durability(durability);

  std::optional<fleet::FleetEngine> engine_holder;
  if (store) {
    engine_holder.emplace(chaos ? injector->wrap_provider(store->provider)
                                : store->provider,
                          config);
  } else if (chaos) {
    engine_holder.emplace(injector->wrap_provider(fixture.provider_tiered()),
                          config);
  } else {
    engine_holder.emplace(fixture.provider(), config);
  }
  fleet::FleetEngine& engine = *engine_holder;
  if (store) store->warm_load("fleet", engine);

  fleet::durable::RecoveryResult recovered;
  if (shared.recover) {
    recovered = durability->recover_into(engine);
    std::fprintf(stderr,
                 "fleet: recovered %zu session(s) from %s "
                 "(checkpoint %s, %llu journal frame(s), %llu torn "
                 "tail(s) truncated)\n",
                 recovered.sessions_restored, shared.checkpoint_dir.c_str(),
                 recovered.checkpoint_loaded ? "loaded" : "absent",
                 static_cast<unsigned long long>(recovered.frames_replayed),
                 static_cast<unsigned long long>(
                     recovered.frames_discarded_torn));
  }

  std::fprintf(stderr,
               "fleet: replaying %zu packets over %zu worker(s), %zu "
               "shard(s), policy %s...\n",
               fixture.total_packets(), engine.workers(), config.shards,
               fleet::to_string(config.backpressure));

  std::jthread checkpointer = start_checkpointer(
      config.durability, engine, shared.checkpoint_interval_ms);
  const auto result =
      shared.recover
          ? fleet::replay_resume(engine, fixture, recovered.cursors,
                                 injector.get())
          : fleet::replay_through(engine, fixture, producers, injector.get());
  if (checkpointer.joinable()) {
    checkpointer.request_stop();
    checkpointer.join();
  }
  if (durability) {
    durability->checkpoint(engine);  // final: cover the drained tail
    std::fprintf(stderr,
                 "durable: %llu checkpoint(s), %llu journal bytes over %zu "
                 "segment(s), %llu verdict(s) journaled, %llu "
                 "deduplicated\n",
                 static_cast<unsigned long long>(
                     durability->checkpoints_written()),
                 static_cast<unsigned long long>(durability->journal_bytes()),
                 durability->segment_count(),
                 static_cast<unsigned long long>(
                     durability->journal_appends()),
                 static_cast<unsigned long long>(
                     durability->frames_deduplicated()));
  }

  const double secs =
      std::chrono::duration<double>(result.elapsed).count();
  std::fprintf(stderr,
               "fleet: %llu windows in %.3f s (%.0f windows/s, %.0f "
               "packets/s)\n",
               static_cast<unsigned long long>(result.windows_classified),
               secs, static_cast<double>(result.windows_classified) / secs,
               static_cast<double>(result.packets_offered) / secs);
  for (std::size_t w = 0; w < engine.workers(); ++w) {
    const std::string prefix = "fleet.worker." + std::to_string(w);
    auto& metrics = engine.metrics();
    std::fprintf(stderr,
                 "  worker %zu: %llu packet(s) in %llu batch(es), "
                 "batch p50 %.0f / p99 %.0f\n",
                 w,
                 static_cast<unsigned long long>(
                     metrics.counter(prefix + ".packets").value()),
                 static_cast<unsigned long long>(
                     metrics.counter(prefix + ".batches").value()),
                 metrics.size_histogram(prefix + ".batch_size")
                     .quantile_us(0.50),
                 metrics.size_histogram(prefix + ".batch_size")
                     .quantile_us(0.99));
  }
  if (injector) {
    const auto c = injector->counts();
    std::fprintf(stderr,
                 "chaos: injected %llu payload faults (%llu nan, %llu "
                 "corrupt, %llu truncated, %llu seq-skew), %llu provider "
                 "throws, %llu worker throws, %llu overloaded dequeues\n",
                 static_cast<unsigned long long>(c.payload_total()),
                 static_cast<unsigned long long>(c.nan_samples),
                 static_cast<unsigned long long>(c.corrupted),
                 static_cast<unsigned long long>(c.truncated),
                 static_cast<unsigned long long>(c.seq_skewed),
                 static_cast<unsigned long long>(c.provider_throws),
                 static_cast<unsigned long long>(c.worker_throws),
                 static_cast<unsigned long long>(c.overload_dequeues));
  }
  std::printf("%s\n", engine.metrics_json().c_str());
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(std::span<const std::string> args) {
  std::string listen;
  fleet::ReplayConfig replay;
  EngineArgs shared;
  fleet::FleetConfig& config = shared.config;
  net::NetServerConfig net_config;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (shared.parse(args, i)) continue;
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) return usage();
    const std::string& value = args[++i];
    if (flag == "--listen") {
      listen = value;
    } else if (flag == "--models") {
      replay.distinct_users = std::stoul(value);
    } else if (flag == "--train-seconds") {
      replay.train_seconds = std::stod(value);
    } else if (flag == "--seed") {
      replay.seed = std::stoull(value);
    } else if (flag == "--max-connections") {
      net_config.max_connections = std::stoul(value);
    } else if (flag == "--idle-timeout-ms") {
      net_config.idle_timeout = std::chrono::milliseconds(std::stoul(value));
    } else if (flag == "--stall-timeout-ms") {
      net_config.stall_timeout = std::chrono::milliseconds(std::stoul(value));
    } else if (flag == "--rate-limit") {
      net_config.rate_limit_pps = std::stod(value);
    } else if (flag == "--accept-burst") {
      net_config.accept_burst = std::stoul(value);
    } else {
      return usage();
    }
  }
  if (listen.empty()) return usage();
  if (shared.recover && shared.checkpoint_dir.empty()) {
    std::fprintf(stderr, "serve: --recover needs --checkpoint-dir\n");
    return usage();
  }
  net_config.listen = listen;
  config.model_cache_capacity =
      std::max<std::size_t>(1, replay.distinct_users);

  // With a model store the gateway trains nothing: models come off disk
  // through the registry (manifest warm-load below), which is what lets a
  // 10k-user gateway start in well under a second.
  std::optional<StoreModels> store;
  std::optional<fleet::ReplayFixture> fixture;
  if (!shared.model_store_dir.empty()) {
    store = StoreModels::open("serve", shared.model_store_dir, config);
    if (!store) return 1;
    std::fprintf(stderr, "serve: %zu model(s) from store %s\n",
                 store->manifest.size(), store->dir.c_str());
  } else {
    std::fprintf(stderr, "serve: training %zu model(s) (%.0f s each)...\n",
                 replay.distinct_users, replay.train_seconds);
    fixture.emplace(fleet::ReplayFixture::build_models_only(replay));
  }

  std::optional<fleet::durable::Durability> durability;
  shared.attach_durability(durability);

  // The pool outlives the engine (packet_return fires from workers until
  // drain) and the engine outlives the server — declaration order is the
  // teardown contract.
  net::PacketPool pool;
  config.packet_return = pool.returner();
  std::optional<fleet::FleetEngine> engine_holder;
  if (store) {
    engine_holder.emplace(store->provider, config);
  } else {
    engine_holder.emplace(fixture->provider(), config);
  }
  fleet::FleetEngine& engine = *engine_holder;
  if (store) store->warm_load("serve", engine);

  if (shared.recover) {
    const auto recovered = durability->recover_into(engine);
    std::fprintf(stderr,
                 "serve: recovered %zu session(s) (checkpoint %s, %llu "
                 "journal frame(s))\n",
                 recovered.sessions_restored,
                 recovered.checkpoint_loaded ? "loaded" : "absent",
                 static_cast<unsigned long long>(recovered.frames_replayed));
  }

  net::NetServer server(engine, net_config, &pool);
  server.start();
  std::fprintf(stderr,
               "serve: listening on %s (%zu worker(s), %zu shard(s), "
               "policy %s); SIGTERM to drain\n",
               server.address().c_str(), engine.workers(), config.shards,
               fleet::to_string(config.backpressure));

  std::jthread checkpointer = start_checkpointer(
      config.durability, engine, shared.checkpoint_interval_ms);

  g_stop_requested = 0;
  struct sigaction action = {};
  action.sa_handler = handle_stop_signal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "serve: draining...\n");
  server.stop();    // flush buffered frames into the engine, close sockets
  engine.drain();   // classify everything accepted
  if (checkpointer.joinable()) {
    checkpointer.request_stop();
    checkpointer.join();
  }
  if (durability) durability->checkpoint(engine);

  auto& metrics = engine.metrics();
  std::fprintf(
      stderr,
      "serve: %llu conn(s) accepted, %llu frame(s) / %llu byte(s) in, "
      "%llu packet(s) streamed, %llu backpressure stall(s), %llu protocol "
      "error(s), %llu idle timeout(s)\n",
      static_cast<unsigned long long>(
          metrics.counter("net.connections_accepted").value()),
      static_cast<unsigned long long>(metrics.counter("net.frames_in").value()),
      static_cast<unsigned long long>(metrics.counter("net.bytes_in").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.packets_streamed").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.backpressure_stalls").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.protocol_errors").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.idle_timeouts").value()));
  std::fprintf(
      stderr,
      "serve: %llu reconnect(s), %llu resume(s), %llu stall reap(s), "
      "%llu rate-limited packet(s), %llu fault(s) injected\n",
      static_cast<unsigned long long>(
          metrics.counter("net.reconnects").value()),
      static_cast<unsigned long long>(metrics.counter("net.resumes").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.stall_reaps").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.rate_limited").value()),
      static_cast<unsigned long long>(
          metrics.counter("net.faults_injected").value()));
  std::printf("%s\n", engine.metrics_json().c_str());
  return 0;
}

int cmd_drive(std::span<const std::string> args) {
  net::DriveConfig config;
  net::NetFaultConfig fault_config;
  bool chaos_net = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--resume") {
      config.resume = true;
      continue;
    }
    if (i + 1 >= args.size()) return usage();
    const std::string& value = args[++i];
    if (flag == "--connect") {
      config.address = value;
    } else if (flag == "--connections") {
      config.connections = std::stoul(value);
    } else if (flag == "--users") {
      config.users = std::stoul(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--rate") {
      config.rate_hz = std::stod(value);
    } else if (flag == "--models") {
      config.distinct_users = std::stoul(value);
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--samples-per-packet") {
      config.samples_per_packet = std::stoul(value);
    } else if (flag == "--settle-timeout-ms") {
      config.settle_timeout = std::chrono::milliseconds(std::stoul(value));
    } else if (flag == "--chaos-net") {
      chaos_net = true;
      fault_config.seed = std::stoull(value);
    } else {
      return usage();
    }
  }
  if (config.address.empty()) return usage();

  // The same moderate schedule the chaos tests use: rough enough that every
  // connection reconnects at least once on a real stream, gentle enough
  // that the drive still settles inside its timeout.
  if (chaos_net) {
    fault_config.partial_write_probability = 0.2;
    fault_config.short_read_probability = 0.1;
    fault_config.write_eagain_probability = 0.05;
    fault_config.reset_probability = 0.03;
    fault_config.midframe_kill_probability = 0.03;
    fault_config.stall = std::chrono::milliseconds(1);
  }
  net::FaultyTransport shim(fault_config);
  if (chaos_net) config.faults = &shim;

  std::fprintf(stderr,
               "drive: %zu session(s) of %.0f s over %zu connection(s) "
               "to %s...\n",
               config.users, config.seconds, config.connections,
               config.address.c_str());
  const auto result = net::drive_load(config);
  const auto delta = [&](std::uint64_t net::wire::Stats::* field) {
    return result.after.*field - result.before.*field;
  };
  std::fprintf(stderr,
               "drive: sent %llu packet(s) in %.3f s, settled in %.3f s "
               "total (%.0f packets/s, %.0f windows/s)\n",
               static_cast<unsigned long long>(result.packets_sent),
               result.send_seconds, result.total_seconds,
               static_cast<double>(result.packets_sent) / result.send_seconds,
               static_cast<double>(delta(&net::wire::Stats::windows_classified)) /
                   result.total_seconds);
  std::printf("drive: sent=%llu accepted=%llu rejected=%llu windows=%llu "
              "alerts=%llu frames=%llu reconnects=%llu resumes=%llu "
              "skipped=%llu settled=%d\n",
              static_cast<unsigned long long>(result.packets_sent),
              static_cast<unsigned long long>(
                  delta(&net::wire::Stats::packets_accepted)),
              static_cast<unsigned long long>(
                  delta(&net::wire::Stats::packets_rejected)),
              static_cast<unsigned long long>(
                  delta(&net::wire::Stats::windows_classified)),
              static_cast<unsigned long long>(delta(&net::wire::Stats::alerts)),
              static_cast<unsigned long long>(delta(&net::wire::Stats::frames_in)),
              static_cast<unsigned long long>(result.reconnects),
              static_cast<unsigned long long>(result.resumes),
              static_cast<unsigned long long>(result.packets_skipped),
              result.settled ? 1 : 0);
  if (!result.settled) {
    std::fprintf(stderr, "drive: NOT settled (server still owes packets)\n");
    return 1;
  }
  return 0;
}

int cmd_journal_dump(std::span<const std::string> args) {
  if (args.size() != 1) return usage();
  // Merge every per-core segment and print per-user seq order — the same
  // canonicalisation the chaos tests diff, so two dumps being byte-equal
  // means the journals are equivalent no matter how many cores wrote them.
  auto records = fleet::durable::Durability::scan_merged(args[0]);
  std::stable_sort(records.begin(), records.end(),
                   [](const fleet::durable::VerdictRecord& a,
                      const fleet::durable::VerdictRecord& b) {
                     if (a.user_id != b.user_id) return a.user_id < b.user_id;
                     return a.seq < b.seq;
                   });
  for (const auto& rec : records) {
    std::printf("user=%d seq=%llu decision=%.17g tier=%u flags=%u "
                "faults=%u quarantine=%u\n",
                rec.user_id, static_cast<unsigned long long>(rec.seq),
                rec.decision_value, static_cast<unsigned>(rec.tier),
                static_cast<unsigned>(rec.flags), rec.faults_total,
                rec.quarantine_dropped);
  }
  std::fprintf(stderr, "journal-dump: %zu record(s)\n", records.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "cohort") return cmd_cohort(args);
    if (command == "synth") return cmd_synth(args);
    if (command == "peaks") return cmd_peaks(args);
    if (command == "train") return cmd_train(args);
    if (command == "detect") return cmd_detect(args);
    if (command == "attack") return cmd_attack(args);
    if (command == "attack-matrix") return cmd_attack_matrix(args);
    if (command == "emit-c") return cmd_emit_c(args);
    if (command == "emit-qm") return cmd_emit_qm(args);
    if (command == "check") return cmd_check(args);
    if (command == "profile") return cmd_profile(args);
    if (command == "fleet") return cmd_fleet(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "drive") return cmd_drive(args);
    if (command == "journal-dump") return cmd_journal_dump(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "siftctl %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
