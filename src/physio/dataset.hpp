// Fantasia-like dataset builder.
//
// Produces, per synthetic subject, the exact artefacts the paper's pipeline
// consumes: synchronously sampled ECG and ABP series plus their annotated
// R-peak and systolic-peak indexes (the paper pre-stored peak indexes on the
// Amulet; we carry ground-truth annotations alongside every record and can
// also regenerate them with the run-time detectors in sift::peaks).
#pragma once

#include <cstdint>
#include <vector>

#include "physio/user_profile.hpp"
#include "signal/series.hpp"

namespace sift::physio {

/// One subject's synchronised recording with ground-truth annotations.
struct Record {
  int user_id = 0;
  signal::Series ecg{360.0};
  signal::Series abp{360.0};
  std::vector<std::size_t> r_peaks;         ///< sample indexes of R instants
  std::vector<std::size_t> systolic_peaks;  ///< sample indexes of ABP peaks
};

/// Default sampling rate: the paper stores 1080 samples per 3 s window.
inline constexpr double kDefaultRateHz = 360.0;

/// Synthesises @p duration_s seconds of coupled ECG+ABP for one user.
/// Deterministic for a fixed (profile.seed, salt) pair.
/// @param salt  varies the trace while keeping the user's physiology fixed
///              (use different salts for training vs. unseen test data).
Record generate_record(const UserProfile& user, double duration_s,
                       double rate_hz = kDefaultRateHz, std::uint64_t salt = 0);

/// One record per cohort member, out[u] == generate_record(cohort[u], ...)
/// bit for bit; members are synthesised in parallel (parallel::parallel_for).
std::vector<Record> generate_cohort_records(
    const std::vector<UserProfile>& cohort, double duration_s,
    double rate_hz = kDefaultRateHz, std::uint64_t salt = 0);

/// Overwrites a fraction of @p rec's stride-aligned windows with bit-exact
/// copies of its first window (samples and peak annotations), modelling the
/// repeated segments a real archive accumulates — sensor freezes, retries,
/// back-filled gaps. Destinations are stride-aligned, pairwise at least
/// @p window_samples apart, and never overlap the source window, so each
/// injected copy yields exactly one content-identical extracted window —
/// the cohort dedup tests rely on that exact count. Deterministic for a
/// fixed seed. Returns the number of windows actually injected (at most
/// floor(fraction * window count); fewer when the record is too short to
/// host enough disjoint destinations).
std::size_t inject_duplicate_windows(Record& rec, std::size_t window_samples,
                                     std::size_t stride_samples,
                                     double fraction, std::uint64_t seed);

}  // namespace sift::physio
