// Microbenchmarks for the feature-extraction pipeline (google-benchmark).
//
// Quantifies the paper's central trade-off at host scale: what the three
// versions and three arithmetic backends cost per 3-second window, broken
// into portrait construction (normalising and binning the trajectory into
// the count grid's summary) and feature math.
// (The on-device cost model lives in bench/table3_resources; these numbers
// validate its *relative* shape on real hardware.)
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/count_matrix.hpp"
#include "core/features.hpp"
#include "core/portrait.hpp"
#include "core/windows.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"
#include "simd/simd.hpp"

namespace {

using namespace sift;

// One realistic 3-second window from the synthetic generator.
const physio::Record& window_record() {
  static const physio::Record rec = [] {
    const auto cohort = physio::synthetic_cohort(1, 7);
    return physio::generate_record(cohort[0], 3.0);
  }();
  return rec;
}

core::Portrait make_portrait() {
  const auto& rec = window_record();
  return core::make_window_portrait(rec, 0, rec.ecg.size());
}

// The window-path benchmarks rotate over this many distinct 3 s windows
// of one 120 s record, so the branch predictor cannot learn one window's
// cell sequence and flatter a data-dependent loop.
constexpr std::size_t kRotation = 40;
constexpr std::size_t kWindowSamples = 1080;

const physio::Record& rotation_record() {
  static const physio::Record rec = [] {
    const auto cohort = physio::synthetic_cohort(1, 7);
    return physio::generate_record(
        cohort[0], 3.0 * static_cast<double>(kRotation));
  }();
  return rec;
}

void BM_PortraitConstruction(benchmark::State& state) {
  // Rebuilt in a warm arena, as the detector does, so the loop times the
  // portrait rather than allocator traffic.
  const auto& rec = rotation_record();
  core::WindowScratch scratch;
  std::size_t w = 0;
  for (auto _ : state) {
    const core::Portrait& p = core::make_window_portrait_into(
        rec, w * kWindowSamples, kWindowSamples, scratch);
    benchmark::DoNotOptimize(p.sum_squared_counts());
    w = w + 1 == kRotation ? 0 : w + 1;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PortraitConstruction);

void BM_ExtractFeatures(benchmark::State& state) {
  const core::Portrait p = make_portrait();
  const core::CountMatrix m(p, core::kDefaultGridSize);
  const auto version = static_cast<core::DetectorVersion>(state.range(0));
  const auto arith = static_cast<core::Arithmetic>(state.range(1));
  for (auto _ : state) {
    auto f = core::extract_features(p, m, version, arith);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetLabel(std::string(core::to_string(version)) + "/" +
                 core::to_string(arith));
}
BENCHMARK(BM_ExtractFeatures)
    ->ArgsProduct({{0, 1, 2} /* version */, {0, 1, 2} /* arithmetic */});

void BM_FullWindowClassificationPath(benchmark::State& state) {
  // Portrait + matrix + features: what FeatureExtraction costs per window.
  const auto& rec = rotation_record();
  const auto version = static_cast<core::DetectorVersion>(state.range(0));
  std::size_t w = 0;
  for (auto _ : state) {
    const core::Portrait p =
        core::make_window_portrait(rec, w * kWindowSamples, kWindowSamples);
    auto f = core::extract_features(p, version, core::Arithmetic::kDouble);
    benchmark::DoNotOptimize(f.data());
    w = w + 1 == kRotation ? 0 : w + 1;
  }
  state.SetLabel(core::to_string(version));
}
BENCHMARK(BM_FullWindowClassificationPath)->DenseRange(0, 2);

// --- SIMD kernel layer ------------------------------------------------------
//
// Per-kernel cost at every dispatch level the build registers, bypassing
// the active-table indirection so the numbers isolate the kernel itself.
// With items = elements, google-benchmark's items_per_second column reads
// as elements/sec — invert for ns/element.

/// One sweep argument per registered level: an unregistered one would be
/// quietly mapped to the scalar table and bench the wrong code.
void registered_levels(benchmark::internal::Benchmark* b) {
  b->ArgName("level");
  for (const auto level : simd::available_levels()) {
    b->Arg(static_cast<std::int64_t>(level));
  }
}

/// The kernel table a sweep point runs, labelled with its level name.
const simd::Kernels& sweep_kernels(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  state.SetLabel(simd::to_string(level));
  return simd::kernels(level);
}

/// One window's worth of realistic samples (ECG channel, padded by tiling)
/// so the kernels see physiological data, not a synthetic ramp.
std::vector<double> kernel_input(std::size_t n) {
  const auto& rec = window_record();
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = rec.ecg[i % rec.ecg.size()];
  return xs;
}

constexpr std::int64_t kKernelN = 4096;

void BM_SimdDot(benchmark::State& state) {
  const auto& k = sweep_kernels(state);
  const auto xs = kernel_input(kKernelN);
  const auto ys = kernel_input(kKernelN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.dot(xs.data(), ys.data(), xs.size()));
  }
  state.SetItemsProcessed(state.iterations() * kKernelN);
}
BENCHMARK(BM_SimdDot)->Apply(registered_levels);

void BM_SimdAxpy(benchmark::State& state) {
  const auto& k = sweep_kernels(state);
  const auto xs = kernel_input(kKernelN);
  std::vector<double> ys = kernel_input(kKernelN);
  for (auto _ : state) {
    k.axpy(1e-9, xs.data(), ys.data(), xs.size());
    benchmark::DoNotOptimize(ys.data());
  }
  state.SetItemsProcessed(state.iterations() * kKernelN);
}
BENCHMARK(BM_SimdAxpy)->Apply(registered_levels);

void BM_SimdMinMax(benchmark::State& state) {
  const auto& k = sweep_kernels(state);
  const auto xs = kernel_input(kKernelN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.min_max(xs.data(), xs.size()));
  }
  state.SetItemsProcessed(state.iterations() * kKernelN);
}
BENCHMARK(BM_SimdMinMax)->Apply(registered_levels);

void BM_SimdMeanVar(benchmark::State& state) {
  const auto& k = sweep_kernels(state);
  const auto xs = kernel_input(kKernelN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.mean_var(xs.data(), xs.size()));
  }
  state.SetItemsProcessed(state.iterations() * kKernelN);
}
BENCHMARK(BM_SimdMeanVar)->Apply(registered_levels);

void BM_SimdFivePointDerivative(benchmark::State& state) {
  const auto& k = sweep_kernels(state);
  const auto xs = kernel_input(kKernelN);
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    k.five_point_derivative(xs.data(), out.data(), xs.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kKernelN);
}
BENCHMARK(BM_SimdFivePointDerivative)->Apply(registered_levels);

void BM_SimdGridCells(benchmark::State& state) {
  // Both channels of the window, tiled: the portrait's binning pass.
  const auto& k = sweep_kernels(state);
  const auto& rec = window_record();
  std::vector<double> ecg(kKernelN);
  std::vector<double> abp(kKernelN);
  for (std::size_t i = 0; i < ecg.size(); ++i) {
    ecg[i] = rec.ecg[i % rec.ecg.size()];
    abp[i] = rec.abp[i % rec.abp.size()];
  }
  const auto me = simd::min_max(ecg);
  const auto ma = simd::min_max(abp);
  std::vector<std::uint32_t> cells(kKernelN);
  for (auto _ : state) {
    k.grid_cells(abp.data(), ecg.data(), ma.min, ma.max - ma.min, me.min,
                 me.max - me.min, core::kDefaultGridSize, cells.data(),
                 cells.size());
    benchmark::DoNotOptimize(cells.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kKernelN);
}
BENCHMARK(BM_SimdGridCells)->Apply(registered_levels);

}  // namespace

BENCHMARK_MAIN();
