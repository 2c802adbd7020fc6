// Unit tests for sift::physio — the synthetic cardiovascular generator that
// substitutes for the PhysioBank Fantasia recordings (DESIGN.md §2).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "physio/abp_model.hpp"
#include "physio/dataset.hpp"
#include "physio/ecg_model.hpp"
#include "physio/rr_process.hpp"
#include "physio/user_profile.hpp"
#include "signal/stats.hpp"

namespace sift::physio {
namespace {

TEST(RrProcess, MeanRateMatchesParameter) {
  RrParams p;
  p.mean_hr_bpm = 75.0;
  p.hrv_sd_s = 0.01;
  RrProcess rr(p, 42);
  const auto beats = rr.generate(300.0);
  // ~75 bpm for 5 minutes -> ~375 beats.
  EXPECT_NEAR(static_cast<double>(beats.size()), 375.0, 20.0);
}

TEST(RrProcess, IntervalsAreClampedToPhysiologicalRange) {
  RrParams p;
  p.mean_hr_bpm = 200.0;  // absurd input; clamp must keep RR >= 0.33 s
  p.hrv_sd_s = 0.5;
  RrProcess rr(p, 7);
  const auto beats = rr.generate(60.0);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    const double rr_i = beats[i] - beats[i - 1];
    EXPECT_GE(rr_i, 0.33 - 1e-9);
    EXPECT_LE(rr_i, 2.0 + 1e-9);
  }
}

TEST(RrProcess, DeterministicForFixedSeed) {
  RrParams p;
  EXPECT_EQ(RrProcess(p, 99).generate(30.0), RrProcess(p, 99).generate(30.0));
  EXPECT_NE(RrProcess(p, 99).generate(30.0), RrProcess(p, 100).generate(30.0));
}

TEST(RrProcess, EmptyForNonPositiveDuration) {
  RrProcess rr(RrParams{}, 1);
  EXPECT_TRUE(rr.generate(0.0).empty());
  EXPECT_TRUE(rr.generate(-5.0).empty());
}

TEST(RrProcess, RespiratoryModulationChangesIntervalSpread) {
  RrParams flat;
  flat.hrv_sd_s = 0.0;
  flat.rsa_depth = 0.0;
  RrParams rsa = flat;
  rsa.rsa_depth = 0.1;
  auto spread = [](const std::vector<double>& beats) {
    std::vector<double> rrs;
    for (std::size_t i = 1; i < beats.size(); ++i) {
      rrs.push_back(beats[i] - beats[i - 1]);
    }
    return signal::stddev(rrs);
  };
  EXPECT_NEAR(spread(RrProcess(flat, 3).generate(120.0)), 0.0, 1e-9);
  EXPECT_GT(spread(RrProcess(rsa, 3).generate(120.0)), 0.01);
}

TEST(EcgModel, RPeaksDominateAtAnnotatedInstants) {
  EcgMorphology m;
  m.noise_sd_mv = 0.0;
  m.baseline_wander_mv = 0.0;
  const std::vector<double> beats{0.5, 1.4, 2.2};
  const EcgTrace trace = synthesize_ecg(m, beats, 3.0, 360.0, 1);
  ASSERT_EQ(trace.r_peak_indices.size(), 3u);
  for (std::size_t idx : trace.r_peak_indices) {
    EXPECT_NEAR(trace.ecg[idx], m.r.amplitude_mv, 0.15)
        << "R apex near annotated instant";
  }
}

TEST(EcgModel, AnnotationsMatchBeatTimes) {
  const std::vector<double> beats{0.0, 1.0, 2.0};
  const EcgTrace trace =
      synthesize_ecg(EcgMorphology{}, beats, 3.0, 360.0, 1);
  ASSERT_EQ(trace.r_peak_indices.size(), 3u);
  EXPECT_EQ(trace.r_peak_indices[1], 360u);
  EXPECT_EQ(trace.r_peak_indices[2], 720u);
}

TEST(EcgModel, TraceLengthMatchesDurationAndRate) {
  const EcgTrace trace =
      synthesize_ecg(EcgMorphology{}, {0.0}, 3.0, 360.0, 1);
  EXPECT_EQ(trace.ecg.size(), 1080u);
  EXPECT_DOUBLE_EQ(trace.ecg.sample_rate_hz(), 360.0);
}

TEST(EcgModel, NoiseSeedIsDeterministic) {
  const std::vector<double> beats{0.2, 1.0};
  const auto a = synthesize_ecg(EcgMorphology{}, beats, 2.0, 360.0, 5);
  const auto b = synthesize_ecg(EcgMorphology{}, beats, 2.0, 360.0, 5);
  const auto c = synthesize_ecg(EcgMorphology{}, beats, 2.0, 360.0, 6);
  EXPECT_EQ(a.ecg.data(), b.ecg.data());
  EXPECT_NE(a.ecg.data(), c.ecg.data());
}

TEST(AbpModel, PressureStaysInPhysiologicalBand) {
  AbpMorphology m;
  m.noise_sd_mmhg = 0.0;
  std::vector<double> beats;
  for (int i = 0; i < 10; ++i) beats.push_back(i * 0.8);
  const AbpTrace trace = synthesize_abp(m, beats, 8.0, 360.0, 1);
  for (double v : trace.abp.data()) {
    EXPECT_GT(v, m.diastolic_mmhg - m.notch_depth_mmhg - 1.0);
    EXPECT_LT(v, m.diastolic_mmhg + m.pulse_pressure_mmhg + 1.0);
  }
}

TEST(AbpModel, SystolicPeaksLagRByTransitPlusUpstroke) {
  AbpMorphology m;
  m.noise_sd_mmhg = 0.0;
  const std::vector<double> beats{1.0, 2.0};
  const AbpTrace trace = synthesize_abp(m, beats, 3.0, 360.0, 1);
  ASSERT_EQ(trace.systolic_peak_indices.size(), 2u);
  const double expected_t = 1.0 + m.transit_time_s + m.upstroke_s;
  EXPECT_NEAR(trace.abp.time_of(trace.systolic_peak_indices[0]), expected_t,
              2.0 / 360.0);
}

TEST(AbpModel, AnnotatedSystolicPeaksAreLocalMaxima) {
  AbpMorphology m;
  m.noise_sd_mmhg = 0.0;
  std::vector<double> beats;
  for (int i = 0; i < 6; ++i) beats.push_back(0.3 + i * 0.9);
  const AbpTrace trace = synthesize_abp(m, beats, 6.0, 360.0, 1);
  ASSERT_GE(trace.systolic_peak_indices.size(), 5u);
  for (std::size_t idx : trace.systolic_peak_indices) {
    if (idx == 0 || idx + 1 >= trace.abp.size()) continue;
    // The annotated index sits within a sample of the local apex.
    const double here = trace.abp[idx];
    EXPECT_GE(here + 1e-9, trace.abp[idx - 1] - 0.5);
    EXPECT_GE(here + 1e-9, trace.abp[idx + 1] - 0.5);
  }
}

TEST(Cohort, RejectsEmptyCohort) {
  EXPECT_THROW(synthetic_cohort(0, 1), std::invalid_argument);
}

TEST(Cohort, HasYoungAndElderlyHalves) {
  const auto cohort = synthetic_cohort(12, 2017);
  ASSERT_EQ(cohort.size(), 12u);
  std::size_t young = 0;
  for (const auto& u : cohort) {
    if (u.age_years < 40.0) ++young;
  }
  EXPECT_EQ(young, 6u) << "Fantasia-style young/elderly split";
}

TEST(Cohort, AgeDistributionMirrorsFantasia) {
  // Paper: average age 46.5 years, SD 25.5 years.
  const auto cohort = synthetic_cohort(12, 2017);
  std::vector<double> ages;
  for (const auto& u : cohort) ages.push_back(u.age_years);
  EXPECT_NEAR(signal::mean(ages), 46.5, 10.0);
  EXPECT_NEAR(signal::stddev(ages), 25.5, 8.0);
}

TEST(Cohort, UsersAreDistinctAndDeterministic) {
  const auto a = synthetic_cohort(12, 2017);
  const auto b = synthetic_cohort(12, 2017);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_DOUBLE_EQ(a[i].rr.mean_hr_bpm, b[i].rr.mean_hr_bpm);
  }
  std::set<double> r_amplitudes;
  for (const auto& u : a) r_amplitudes.insert(u.ecg.r.amplitude_mv);
  EXPECT_EQ(r_amplitudes.size(), a.size()) << "morphologies differ per user";
}

TEST(Dataset, RecordChannelsShareBeatStructure) {
  const auto cohort = synthetic_cohort(2, 7);
  const Record rec = generate_record(cohort[0], 30.0);
  ASSERT_GT(rec.r_peaks.size(), 20u);
  ASSERT_GT(rec.systolic_peaks.size(), 20u);
  // Every R peak should be followed by a systolic peak within ~0.6 s: the
  // coupling SIFT exploits.
  const double rate = rec.ecg.sample_rate_hz();
  std::size_t paired = 0;
  for (std::size_t r : rec.r_peaks) {
    for (std::size_t s : rec.systolic_peaks) {
      if (s > r && static_cast<double>(s - r) / rate < 0.6) {
        ++paired;
        break;
      }
    }
  }
  EXPECT_GE(paired, rec.r_peaks.size() - 1);
}

TEST(Dataset, SaltChangesTraceButNotPhysiology) {
  const auto cohort = synthetic_cohort(1, 7);
  const Record train = generate_record(cohort[0], 10.0, kDefaultRateHz, 0);
  const Record test = generate_record(cohort[0], 10.0, kDefaultRateHz, 1);
  EXPECT_NE(train.ecg.data(), test.ecg.data()) << "different realisation";
  // Same user physiology: similar beat counts.
  EXPECT_NEAR(static_cast<double>(train.r_peaks.size()),
              static_cast<double>(test.r_peaks.size()), 3.0);
}

TEST(Dataset, CohortRecordsAlignLengths) {
  const auto cohort = synthetic_cohort(3, 11);
  const auto records = generate_cohort_records(cohort, 12.0);
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) {
    EXPECT_EQ(r.ecg.size(), r.abp.size());
    EXPECT_EQ(r.ecg.size(), static_cast<std::size_t>(12.0 * kDefaultRateHz));
  }
}

// FNV-1a over every sample's bit pattern and every annotation index.
std::uint64_t record_hash(const Record& rec, std::uint64_t h) {
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(rec.user_id));
  for (const auto* ch : {&rec.ecg, &rec.abp}) {
    mix(ch->size());
    for (double v : ch->samples()) mix(std::bit_cast<std::uint64_t>(v));
  }
  for (const auto* peaks : {&rec.r_peaks, &rec.systolic_peaks}) {
    mix(peaks->size());
    for (std::size_t p : *peaks) mix(p);
  }
  return h;
}

bool bitwise_equal(const Record& a, const Record& b) {
  return record_hash(a, 0xCBF29CE484222325ULL) ==
             record_hash(b, 0xCBF29CE484222325ULL) &&
         a.ecg.size() == b.ecg.size() && a.r_peaks == b.r_peaks &&
         a.systolic_peaks == b.systolic_peaks;
}

// Pins the synthesised bytes: two users' 30 s records, recorded before the
// synthesis skipped std::exp for arguments below -750 (where exp is +0, so
// the skipped term is amplitude * 0.0 either way). Any change to the ECG,
// ABP or RR models moves this value.
TEST(Dataset, RecordBytesArePinned) {
  const auto cohort = synthetic_cohort(2, 2017);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const UserProfile& user : cohort) {
    h = record_hash(generate_record(user, 30.0), h);
  }
  EXPECT_EQ(h, 0x8CF5C35CA53DCC8BULL);
}

// generate_cohort_records synthesises users in parallel; every record must
// be bit-identical to the one generate_record makes on the calling thread.
TEST(Dataset, CohortRecordsMatchSerialBitwise) {
  for (const std::size_t users : {1u, 3u, 6u}) {
    const auto cohort = synthetic_cohort(users, 41 + users);
    for (const double seconds : {1.0, 7.5, 30.0}) {
      for (const std::uint64_t salt : {0ULL, 1ULL, 123457ULL}) {
        const auto parallel =
            generate_cohort_records(cohort, seconds, kDefaultRateHz, salt);
        ASSERT_EQ(parallel.size(), users);
        for (std::size_t u = 0; u < users; ++u) {
          const Record serial =
              generate_record(cohort[u], seconds, kDefaultRateHz, salt);
          EXPECT_TRUE(bitwise_equal(parallel[u], serial))
              << "user " << u << ", " << seconds << " s, salt " << salt;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sift::physio
