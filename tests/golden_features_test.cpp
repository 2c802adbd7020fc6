// Bitwise golden feature records.
//
// Six named windows from a fixed synthetic cohort, each extracted at every
// detector version and arithmetic backend on the paper's 50 x 50 grid. The
// table below pins every entry as its IEEE-754 bit pattern, so any change
// to the portrait normaliser, the grid binning, the column summary or the
// feature arithmetic that moves a single ulp fails here and names the
// feature. The windows cover the binning's edge cases: a clean window, a
// flatlined ECG (degenerate range -> midpoint), an R peak at window index
// 0, channels saturated at their maximum (x == 1.0 -> last cell), and two
// attacked windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "core/count_matrix.hpp"
#include "core/features.hpp"
#include "core/portrait.hpp"
#include "core/windows.hpp"
#include "physio/dataset.hpp"
#include "physio/user_profile.hpp"

namespace {

using namespace sift;

constexpr std::size_t kWindow = 1080;
constexpr std::size_t kGrid = 50;

struct GoldenRecord {
  const char* window;
  int version;     ///< core::DetectorVersion
  int arithmetic;  ///< core::Arithmetic
  std::array<std::uint64_t, 8> bits;  ///< feature i's bit pattern
};

// Recorded from the grid-matrix pipeline (portrait point buffer, n x n
// cell grid, staged column averages) that preceded the one-pass binning.
// clang-format off
constexpr GoldenRecord kGolden[] = {
    {"clean", 0, 0,
     {0x3f6e1db1d0fffc67ULL, 0x3fd2d5afabe76c1eULL, 0x3fdbe96e21dacd37ULL,
      0x3ff22064ddf87fc2ULL, 0x3fce6bd297955df0ULL, 0x3ff12d5000f4c428ULL,
      0x3ff06076310fb0f4ULL, 0x3fed13cf47057b4eULL}},
    {"clean", 0, 1,
     {0x3f6e1db1e0000000ULL, 0x3fd2d5af60000000ULL, 0x3fdbe96e00000000ULL,
      0x3ff22064e0000000ULL, 0x3fce6bd2a0000000ULL, 0x3ff12d5000000000ULL,
      0x3ff0607640000000ULL, 0x3fed13cf40000000ULL}},
    {"clean", 0, 2,
     {0x3f6e200000000000ULL, 0x3fd2d54000000000ULL, 0x3fdbe94000000000ULL,
      0x3ff228f000000000ULL, 0x3fcec20000000000ULL, 0x3ff12d3000000000ULL,
      0x3ff0607000000000ULL, 0x3fed13a000000000ULL}},
    {"clean", 1, 0,
     {0x3f6e1db1d0fffc67ULL, 0x3fb62bf11f926c80ULL, 0x3fdbe96e21dacd37ULL,
      0x400147f4716c29f6ULL, 0x3fcf08d1e8b612a9ULL, 0x3ff2746f2d0b0117ULL,
      0x3ff0c34ef17df9eeULL, 0x3fea6fc29daa2198ULL}},
    {"clean", 1, 1,
     {0x3f6e1db1e0000000ULL, 0x3fb62bf080000000ULL, 0x3fdbe96e00000000ULL,
      0x400147f480000000ULL, 0x3fcf08d200000000ULL, 0x3ff2746f20000000ULL,
      0x3ff0c34f00000000ULL, 0x3fea6fc2c0000000ULL}},
    {"clean", 1, 2,
     {0x3f6e200000000000ULL, 0x3fb62b0000000000ULL, 0x3fdbe94000000000ULL,
      0x400147e800000000ULL, 0x3fcf088000000000ULL, 0x3ff2745000000000ULL,
      0x3ff0c34000000000ULL, 0x3fea6f8000000000ULL}},
    {"clean", 2, 0,
     {0x400147f4716c29f6ULL, 0x3fcf08d1e8b612a9ULL, 0x3ff2746f2d0b0117ULL,
      0x3ff0c34ef17df9eeULL, 0x3fea6fc29daa2198ULL}},
    {"clean", 2, 1,
     {0x400147f480000000ULL, 0x3fcf08d200000000ULL, 0x3ff2746f20000000ULL,
      0x3ff0c34f00000000ULL, 0x3fea6fc2c0000000ULL}},
    {"clean", 2, 2,
     {0x400147e800000000ULL, 0x3fcf088000000000ULL, 0x3ff2745000000000ULL,
      0x3ff0c34000000000ULL, 0x3fea6f8000000000ULL}},
    {"flatline_ecg", 0, 0,
     {0x3f9dfbfb8faedddaULL, 0x3fd2d5afabe76c1eULL, 0x3fdbe96e21dacd37ULL,
      0x0000000000000000ULL, 0x3fddd1b70c1f93edULL, 0x0000000000000000ULL,
      0x3ff1cec26cfe852fULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 0, 1,
     {0x3f9dfbfb80000000ULL, 0x3fd2d5af60000000ULL, 0x3fdbe96e00000000ULL,
      0x0000000000000000ULL, 0x3fddd1b700000000ULL, 0x0000000000000000ULL,
      0x3ff1cec280000000ULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 0, 2,
     {0x3f9dfc0000000000ULL, 0x3fd2d54000000000ULL, 0x3fdbe94000000000ULL,
      0x0000000000000000ULL, 0x3fdda48000000000ULL, 0x0000000000000000ULL,
      0x3ff1ceb000000000ULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 1, 0,
     {0x3f9dfbfb8faedddaULL, 0x3fb62bf11f926c80ULL, 0x3fdbe96e21dacd37ULL,
      0x0000000000000000ULL, 0x3fe0175bb47dbf87ULL, 0x0000000000000000ULL,
      0x3ff3d1d838128b09ULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 1, 1,
     {0x3f9dfbfb80000000ULL, 0x3fb62bf080000000ULL, 0x3fdbe96e00000000ULL,
      0x0000000000000000ULL, 0x3fe0175bc0000000ULL, 0x0000000000000000ULL,
      0x3ff3d1d840000000ULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 1, 2,
     {0x3f9dfc0000000000ULL, 0x3fb62b0000000000ULL, 0x3fdbe94000000000ULL,
      0x0000000000000000ULL, 0x3fe0174000000000ULL, 0x0000000000000000ULL,
      0x3ff3d1d000000000ULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 2, 0,
     {0x0000000000000000ULL, 0x3fe0175bb47dbf87ULL, 0x0000000000000000ULL,
      0x3ff3d1d838128b09ULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 2, 1,
     {0x0000000000000000ULL, 0x3fe0175bc0000000ULL, 0x0000000000000000ULL,
      0x3ff3d1d840000000ULL, 0x0000000000000000ULL}},
    {"flatline_ecg", 2, 2,
     {0x0000000000000000ULL, 0x3fe0174000000000ULL, 0x0000000000000000ULL,
      0x3ff3d1d000000000ULL, 0x0000000000000000ULL}},
    {"r_peak_at_index_0", 0, 0,
     {0x3f6e287b7f80581aULL, 0x3fd0e75c8a320498ULL, 0x3fdbf01e17d2dc45ULL,
      0x3ff2564d2f774084ULL, 0x3fd052705df04f8aULL, 0x3ff10731c233062aULL,
      0x3ff03d834f5e2eb4ULL, 0x3fecaf7d17771abdULL}},
    {"r_peak_at_index_0", 0, 1,
     {0x3f6e287b80000000ULL, 0x3fd0e75c80000000ULL, 0x3fdbf01e40000000ULL,
      0x3ff2564d40000000ULL, 0x3fd0527080000000ULL, 0x3ff10731c0000000ULL,
      0x3ff03d8340000000ULL, 0x3fecaf7d20000000ULL}},
    {"r_peak_at_index_0", 0, 2,
     {0x3f6e200000000000ULL, 0x3fd0e6c000000000ULL, 0x3fdbf00000000000ULL,
      0x3ff25dd000000000ULL, 0x3fd0780000000000ULL, 0x3ff1072000000000ULL,
      0x3ff03d7000000000ULL, 0x3fecaf6000000000ULL}},
    {"r_peak_at_index_0", 1, 0,
     {0x3f6e287b7f80581aULL, 0x3fb1dbca9691a75eULL, 0x3fdbf01e17d2dc45ULL,
      0x4001dad76b94a9f0ULL, 0x3fd0b18fde85099cULL, 0x3ff222247057b8c0ULL,
      0x3ff07c958dd7a4b3ULL, 0x3fe9c2d13f8be97dULL}},
    {"r_peak_at_index_0", 1, 1,
     {0x3f6e287b80000000ULL, 0x3fb1dbca60000000ULL, 0x3fdbf01e40000000ULL,
      0x4001dad760000000ULL, 0x3fd0b18fe0000000ULL, 0x3ff2222480000000ULL,
      0x3ff07c9580000000ULL, 0x3fe9c2d140000000ULL}},
    {"r_peak_at_index_0", 1, 2,
     {0x3f6e200000000000ULL, 0x3fb1db0000000000ULL, 0x3fdbf00000000000ULL,
      0x4001dad000000000ULL, 0x3fd0b14000000000ULL, 0x3ff2221000000000ULL,
      0x3ff07c8000000000ULL, 0x3fe9c2c000000000ULL}},
    {"r_peak_at_index_0", 2, 0,
     {0x4001dad76b94a9f0ULL, 0x3fd0b18fde85099cULL, 0x3ff222247057b8c0ULL,
      0x3ff07c958dd7a4b3ULL, 0x3fe9c2d13f8be97dULL}},
    {"r_peak_at_index_0", 2, 1,
     {0x4001dad760000000ULL, 0x3fd0b18fe0000000ULL, 0x3ff2222480000000ULL,
      0x3ff07c9580000000ULL, 0x3fe9c2d140000000ULL}},
    {"r_peak_at_index_0", 2, 2,
     {0x4001dad000000000ULL, 0x3fd0b14000000000ULL, 0x3ff2221000000000ULL,
      0x3ff07c8000000000ULL, 0x3fe9c2c000000000ULL}},
    {"saturated_at_max", 0, 0,
     {0x3f81389f3b926149ULL, 0x3fdd9b8b2f4787aeULL, 0x3fda3010b7e6ec27ULL,
      0x3ff3a55cfb3d12d4ULL, 0x3fd4e70fa1e92109ULL, 0x3ff0ff1845b6f29aULL,
      0x3ff0e55a26f5ab38ULL, 0x3fed41409baee275ULL}},
    {"saturated_at_max", 0, 1,
     {0x3f81389f40000000ULL, 0x3fdd9b8b40000000ULL, 0x3fda3010e0000000ULL,
      0x3ff3a55d00000000ULL, 0x3fd4e70fa0000000ULL, 0x3ff0ff1840000000ULL,
      0x3ff0e55a20000000ULL, 0x3fed4140a0000000ULL}},
    {"saturated_at_max", 0, 2,
     {0x3f81380000000000ULL, 0x3fdd9b4000000000ULL, 0x3fda300000000000ULL,
      0x3ff3a4c000000000ULL, 0x3fd4f04000000000ULL, 0x3ff0ff0000000000ULL,
      0x3ff0e54000000000ULL, 0x3fed412000000000ULL}},
    {"saturated_at_max", 1, 0,
     {0x3f81389f3b926149ULL, 0x3fcb64e054690de1ULL, 0x3fda3010b7e6ec27ULL,
      0x4006896396f8ef9fULL, 0x3fd5af8d1910aa0cULL, 0x3ff20e7f6d41962aULL,
      0x3ff1d7b263383a37ULL, 0x3feac64942b87f98ULL}},
    {"saturated_at_max", 1, 1,
     {0x3f81389f40000000ULL, 0x3fcb64e060000000ULL, 0x3fda3010e0000000ULL,
      0x40068963a0000000ULL, 0x3fd5af8d20000000ULL, 0x3ff20e7f80000000ULL,
      0x3ff1d7b260000000ULL, 0x3feac64960000000ULL}},
    {"saturated_at_max", 1, 2,
     {0x3f81380000000000ULL, 0x3fcb648000000000ULL, 0x3fda300000000000ULL,
      0x4006896000000000ULL, 0x3fd5af8000000000ULL, 0x3ff20e7000000000ULL,
      0x3ff1d7a000000000ULL, 0x3feac62000000000ULL}},
    {"saturated_at_max", 2, 0,
     {0x4006896396f8ef9fULL, 0x3fd5af8d1910aa0cULL, 0x3ff20e7f6d41962aULL,
      0x3ff1d7b263383a37ULL, 0x3feac64942b87f98ULL}},
    {"saturated_at_max", 2, 1,
     {0x40068963a0000000ULL, 0x3fd5af8d20000000ULL, 0x3ff20e7f80000000ULL,
      0x3ff1d7b260000000ULL, 0x3feac64960000000ULL}},
    {"saturated_at_max", 2, 2,
     {0x4006896000000000ULL, 0x3fd5af8000000000ULL, 0x3ff20e7000000000ULL,
      0x3ff1d7a000000000ULL, 0x3feac62000000000ULL}},
    {"substitution", 0, 0,
     {0x3f8017261bc8c4c4ULL, 0x3fd2d5afabe76c1eULL, 0x3fdbe96e21dacd37ULL,
      0x3feed009d8250a40ULL, 0x3fc2362557661e8cULL, 0x3ff3aab9ed48b8d4ULL,
      0x3ff01f0f06b39325ULL, 0x3fedc5bbf8b968f5ULL}},
    {"substitution", 0, 1,
     {0x3f80172620000000ULL, 0x3fd2d5af60000000ULL, 0x3fdbe96e00000000ULL,
      0x3feed009e0000000ULL, 0x3fc2362560000000ULL, 0x3ff3aab9e0000000ULL,
      0x3ff01f0f00000000ULL, 0x3fedc5bc00000000ULL}},
    {"substitution", 0, 2,
     {0x3f80180000000000ULL, 0x3fd2d54000000000ULL, 0x3fdbe94000000000ULL,
      0x3feee1e000000000ULL, 0x3fc28f0000000000ULL, 0x3ff3aab000000000ULL,
      0x3ff01f0000000000ULL, 0x3fedc5a000000000ULL}},
    {"substitution", 1, 0,
     {0x3f8017261bc8c4c4ULL, 0x3fb62bf11f926c80ULL, 0x3fdbe96e21dacd37ULL,
      0x3ff862f2296d6438ULL, 0x3fc26c825cacd1f0ULL, 0x3ff854facd4ecf0cULL,
      0x3ff03e9d00b7f076ULL, 0x3febd45307821b15ULL}},
    {"substitution", 1, 1,
     {0x3f80172620000000ULL, 0x3fb62bf080000000ULL, 0x3fdbe96e00000000ULL,
      0x3ff862f200000000ULL, 0x3fc26c8260000000ULL, 0x3ff854fae0000000ULL,
      0x3ff03e9d20000000ULL, 0x3febd45320000000ULL}},
    {"substitution", 1, 2,
     {0x3f80180000000000ULL, 0x3fb62b0000000000ULL, 0x3fdbe94000000000ULL,
      0x3ff862f000000000ULL, 0x3fc26c0000000000ULL, 0x3ff854f000000000ULL,
      0x3ff03e9000000000ULL, 0x3febd42000000000ULL}},
    {"substitution", 2, 0,
     {0x3ff862f2296d6438ULL, 0x3fc26c825cacd1f0ULL, 0x3ff854facd4ecf0cULL,
      0x3ff03e9d00b7f076ULL, 0x3febd45307821b15ULL}},
    {"substitution", 2, 1,
     {0x3ff862f200000000ULL, 0x3fc26c8260000000ULL, 0x3ff854fae0000000ULL,
      0x3ff03e9d20000000ULL, 0x3febd45320000000ULL}},
    {"substitution", 2, 2,
     {0x3ff862f000000000ULL, 0x3fc26c0000000000ULL, 0x3ff854f000000000ULL,
      0x3ff03e9000000000ULL, 0x3febd42000000000ULL}},
    {"noise", 0, 0,
     {0x3f5f7e18c00bafd2ULL, 0x3fd2d45992745addULL, 0x3fdbe2be2be2be2bULL,
      0x3ff494805b74e233ULL, 0x3fdfc02c01396745ULL, 0x3fe8f2026979c8f8ULL,
      0x3ff248b257424311ULL, 0x3feba24bf369d415ULL}},
    {"noise", 0, 1,
     {0x3f5f7e18c0000000ULL, 0x3fd2d45980000000ULL, 0x3fdbe2be60000000ULL,
      0x3ff4948060000000ULL, 0x3fdfc02c00000000ULL, 0x3fe8f20260000000ULL,
      0x3ff248b260000000ULL, 0x3feba24c00000000ULL}},
    {"noise", 0, 2,
     {0x3f5f800000000000ULL, 0x3fd2d40000000000ULL, 0x3fdbe2c000000000ULL,
      0x3ff48e0000000000ULL, 0x3fdfa40000000000ULL, 0x3fe8f1e000000000ULL,
      0x3ff248a000000000ULL, 0x3feba22000000000ULL}},
    {"noise", 1, 0,
     {0x3f5f7e18c00bafd2ULL, 0x3fb628cbd1244a63ULL, 0x3fdbe2be2be2be2bULL,
      0x400bead2a02d2085ULL, 0x3fe1dd7b262fe1c2ULL, 0x3fe3d8a623e0e59bULL,
      0x3ff504e960d6d5b8ULL, 0x3fe82866049e3999ULL}},
    {"noise", 1, 1,
     {0x3f5f7e18c0000000ULL, 0x3fb628cba0000000ULL, 0x3fdbe2be60000000ULL,
      0x400bead2a0000000ULL, 0x3fe1dd7b20000000ULL, 0x3fe3d8a620000000ULL,
      0x3ff504e960000000ULL, 0x3fe8286620000000ULL}},
    {"noise", 1, 2,
     {0x3f5f800000000000ULL, 0x3fb6280000000000ULL, 0x3fdbe2c000000000ULL,
      0x400beaa800000000ULL, 0x3fe1dd6000000000ULL, 0x3fe3d88000000000ULL,
      0x3ff504d000000000ULL, 0x3fe8282000000000ULL}},
    {"noise", 2, 0,
     {0x400bead2a02d2085ULL, 0x3fe1dd7b262fe1c2ULL, 0x3fe3d8a623e0e59bULL,
      0x3ff504e960d6d5b8ULL, 0x3fe82866049e3999ULL}},
    {"noise", 2, 1,
     {0x400bead2a0000000ULL, 0x3fe1dd7b20000000ULL, 0x3fe3d8a620000000ULL,
      0x3ff504e960000000ULL, 0x3fe8286620000000ULL}},
    {"noise", 2, 2,
     {0x400beaa800000000ULL, 0x3fe1dd6000000000ULL, 0x3fe3d88000000000ULL,
      0x3ff504d000000000ULL, 0x3fe8282000000000ULL}},
};
// clang-format on

/// One named window, owning its samples and window-relative peaks.
struct Window {
  std::string name;
  std::vector<double> ecg;
  std::vector<double> abp;
  std::vector<std::size_t> r_peaks;
  std::vector<std::size_t> sys_peaks;

  core::PortraitInput input() const {
    core::PortraitInput in;
    in.ecg = ecg;
    in.abp = abp;
    in.r_peaks = r_peaks;
    in.sys_peaks = sys_peaks;
    in.sample_rate_hz = physio::kDefaultRateHz;
    return in;
  }
};

Window slice(std::string name, const physio::Record& rec, std::size_t start) {
  Window w;
  w.name = std::move(name);
  const auto ecg = rec.ecg.samples().subspan(start, kWindow);
  const auto abp = rec.abp.samples().subspan(start, kWindow);
  w.ecg.assign(ecg.begin(), ecg.end());
  w.abp.assign(abp.begin(), abp.end());
  w.r_peaks = core::peaks_in_range(rec.r_peaks, start, kWindow);
  w.sys_peaks = core::peaks_in_range(rec.systolic_peaks, start, kWindow);
  return w;
}

Window attacked(std::string name, const physio::Record& victim,
                const physio::Record& donor, attack::Attack& how,
                std::size_t start, std::uint64_t seed) {
  physio::Record rec = victim;
  std::mt19937_64 rng(seed);
  how.alter(rec.ecg, rec.r_peaks, start, kWindow, donor, rng);
  return slice(std::move(name), rec, start);
}

/// Clips @p xs at min + 0.8 * range, so many samples equal the maximum.
void saturate(std::vector<double>& xs) {
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  const double cap = *lo + 0.8 * (*hi - *lo);
  for (double& x : xs) x = std::min(x, cap);
}

std::vector<Window> golden_windows() {
  const auto cohort = physio::synthetic_cohort(3, 2017);
  std::vector<physio::Record> recs;
  for (const auto& user : cohort) {
    recs.push_back(physio::generate_record(user, 12.0));
  }

  std::vector<Window> out;
  out.push_back(slice("clean", recs[0], kWindow));

  attack::FlatlineAttack flatline;
  out.push_back(attacked("flatline_ecg", recs[0], recs[1], flatline, kWindow, 1));

  const auto first_r = std::lower_bound(recs[0].r_peaks.begin(),
                                        recs[0].r_peaks.end(), 2 * kWindow);
  out.push_back(slice("r_peak_at_index_0", recs[0], *first_r));

  Window sat = slice("saturated_at_max", recs[1], kWindow);
  saturate(sat.ecg);
  saturate(sat.abp);
  out.push_back(std::move(sat));

  attack::SubstitutionAttack substitution;
  out.push_back(attacked("substitution", recs[0], recs[2], substitution,
                         kWindow, 2));

  attack::NoiseInjectionAttack noise;
  out.push_back(attacked("noise", recs[1], recs[2], noise, 2 * kWindow, 3));
  return out;
}

const GoldenRecord* find_golden(const std::string& window, int version,
                                int arithmetic) {
  for (const GoldenRecord& g : kGolden) {
    if (window == g.window && version == g.version &&
        arithmetic == g.arithmetic) {
      return &g;
    }
  }
  return nullptr;
}

std::string table_row(const std::string& window, int version, int arithmetic,
                      const std::vector<double>& f) {
  std::string row = "{\"" + window + "\", " + std::to_string(version) + ", " +
                    std::to_string(arithmetic) + ", {";
  char buf[32];
  for (std::size_t i = 0; i < f.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%016llxULL", i ? ", " : "",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(f[i])));
    row += buf;
  }
  return row + "}},";
}

TEST(GoldenFeatures, WindowsExerciseTheirEdgeCases) {
  const auto windows = golden_windows();
  ASSERT_EQ(windows.size(), 6u);
  const auto& flat = windows[1].ecg;
  EXPECT_EQ(*std::min_element(flat.begin(), flat.end()),
            *std::max_element(flat.begin(), flat.end()))
      << "flatline ECG must have a degenerate range";
  ASSERT_FALSE(windows[2].r_peaks.empty());
  EXPECT_EQ(windows[2].r_peaks.front(), 0u);
  const auto& sat = windows[3].abp;
  EXPECT_GT(std::count(sat.begin(), sat.end(),
                       *std::max_element(sat.begin(), sat.end())),
            10)
      << "saturated ABP must put many samples exactly at its maximum";
}

TEST(GoldenFeatures, EveryEntryMatchesBitwise) {
  for (const Window& w : golden_windows()) {
    const core::Portrait portrait(w.input());
    const core::CountMatrix matrix(portrait, kGrid);
    for (int v = 0; v < 3; ++v) {
      const auto version = static_cast<core::DetectorVersion>(v);
      const auto names = core::feature_names(version);
      for (int a = 0; a < 3; ++a) {
        const auto arithmetic = static_cast<core::Arithmetic>(a);
        const auto f =
            core::extract_features(portrait, matrix, version, arithmetic);
        ASSERT_EQ(f.size(), names.size());
        const GoldenRecord* g = find_golden(w.name, v, a);
        if (g == nullptr) {
          ADD_FAILURE() << "no golden record; computed:\n    "
                        << table_row(w.name, v, a, f);
          continue;
        }
        for (std::size_t i = 0; i < f.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(f[i]), g->bits[i])
              << w.name << " / " << core::to_string(version) << " / "
              << core::to_string(arithmetic) << ": " << names[i] << " is "
              << f[i] << ", golden "
              << std::bit_cast<double>(g->bits[i]);
        }
        for (std::size_t i = f.size(); i < g->bits.size(); ++i) {
          EXPECT_EQ(g->bits[i], 0u) << "unused golden slot " << i;
        }
      }
    }
  }
}

}  // namespace
