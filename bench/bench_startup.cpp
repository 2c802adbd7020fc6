// Start-up microbenchmarks (google-benchmark): the two halves of what
// `siftctl serve` does before it accepts, timed apart.
//
//   BM_CohortRecords     physio::generate_cohort_records, 4 users x 120 s
//   BM_BuildModelsOnly   fleet::ReplayFixture::build_models_only, 4 users
//                        (the records above plus per-user training)
//   BM_TrainUserModels   one user's three tier models on one thread (3
//                        donors, 120 s each): /walks:3 is three
//                        core::train_user_model calls, /walks:1 is one
//                        core::train_user_models walk
//
// The first two fan out one user per core through parallel::parallel_for.
// Each runs twice: /cores:1 confines the benchmark thread to the core it is
// on, so the pool's width is 1 and the work runs serially on the caller
// (the serial-equivalent baseline), and /cores:0 leaves the affinity mask
// as it found it. Nothing is cached between iterations: every one synthesises
// and trains from scratch. Wall time (UseRealTime) is the figure; CPU time
// counts only the benchmark thread.
//
//   ./build/bench/bench_startup --benchmark_repetitions=7
//       --benchmark_report_aggregates_only=true   (one command line)
#include <benchmark/benchmark.h>

#include <sched.h>

#include "core/trainer.hpp"
#include "fleet/replay.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"

namespace {

using namespace sift;

constexpr std::size_t kUsers = 4;
constexpr double kTrainSeconds = 120.0;

/// Confines the calling thread to its current core for the scope when
/// @p one_core is set; restores the old mask on exit.
class CoreScope {
 public:
  explicit CoreScope(bool one_core) {
    sched_getaffinity(0, sizeof saved_, &saved_);
    if (!one_core) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  ~CoreScope() { sched_setaffinity(0, sizeof saved_, &saved_); }
  CoreScope(const CoreScope&) = delete;
  CoreScope& operator=(const CoreScope&) = delete;

 private:
  cpu_set_t saved_;
};

void BM_CohortRecords(benchmark::State& state) {
  const CoreScope cores(state.range(0) == 1);
  const auto cohort = physio::synthetic_cohort(kUsers, 2017);
  for (auto _ : state) {
    auto records = physio::generate_cohort_records(cohort, kTrainSeconds);
    benchmark::DoNotOptimize(records.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kUsers));
}
BENCHMARK(BM_CohortRecords)
    ->ArgName("cores")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BuildModelsOnly(benchmark::State& state) {
  const CoreScope cores(state.range(0) == 1);
  fleet::ReplayConfig config;
  config.distinct_users = kUsers;
  config.train_seconds = kTrainSeconds;
  for (auto _ : state) {
    auto fixture = fleet::ReplayFixture::build_models_only(config);
    benchmark::DoNotOptimize(fixture.provider());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kUsers));
}
BENCHMARK(BM_BuildModelsOnly)
    ->ArgName("cores")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TrainUserModels(benchmark::State& state) {
  const auto records = physio::generate_cohort_records(
      physio::synthetic_cohort(kUsers, 2017), kTrainSeconds);
  std::vector<const physio::Record*> donors;
  for (std::size_t j = 1; j < records.size(); ++j) {
    donors.push_back(&records[j]);
  }
  const bool one_walk = state.range(0) == 1;
  for (auto _ : state) {
    if (one_walk) {
      auto models = core::train_user_models(records[0], donors, {});
      benchmark::DoNotOptimize(models.data());
    } else {
      for (const core::DetectorVersion tier : core::kTiers) {
        core::SiftConfig config;
        config.version = tier;
        auto model = core::train_user_model(records[0], donors, config);
        benchmark::DoNotOptimize(model.svm.w.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(core::kTiers.size()));
}
BENCHMARK(BM_TrainUserModels)
    ->ArgName("walks")
    ->Arg(3)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
