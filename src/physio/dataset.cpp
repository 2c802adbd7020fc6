#include "physio/dataset.hpp"

#include <algorithm>
#include <random>

#include "parallel/parallel_for.hpp"

namespace sift::physio {

Record generate_record(const UserProfile& user, double duration_s,
                       double rate_hz, std::uint64_t salt) {
  const std::uint64_t base = user.seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  RrProcess rr(user.rr, base);
  const std::vector<double> beats = rr.generate(duration_s);

  EcgTrace ecg = synthesize_ecg(user.ecg, beats, duration_s, rate_hz, base + 1);
  AbpTrace abp = synthesize_abp(user.abp, beats, duration_s, rate_hz, base + 2);

  Record rec;
  rec.user_id = user.user_id;
  rec.ecg = std::move(ecg.ecg);
  rec.abp = std::move(abp.abp);
  rec.r_peaks = std::move(ecg.r_peak_indices);
  rec.systolic_peaks = std::move(abp.systolic_peak_indices);
  return rec;
}

std::vector<Record> generate_cohort_records(
    const std::vector<UserProfile>& cohort, double duration_s, double rate_hz,
    std::uint64_t salt) {
  std::vector<Record> out(cohort.size());
  parallel::parallel_for(cohort.size(), [&](std::size_t u) {
    out[u] = generate_record(cohort[u], duration_s, rate_hz, salt);
  });
  return out;
}

std::size_t inject_duplicate_windows(Record& rec, std::size_t window_samples,
                                     std::size_t stride_samples,
                                     double fraction, std::uint64_t seed) {
  const std::size_t len = std::min(rec.ecg.size(), rec.abp.size());
  if (window_samples == 0 || stride_samples == 0 || fraction <= 0.0 ||
      len < 2 * window_samples) {
    return 0;
  }
  const std::size_t n_windows = (len - window_samples) / stride_samples + 1;
  const auto target = static_cast<std::size_t>(
      fraction * static_cast<double>(n_windows));
  if (target == 0) return 0;

  // Stride-aligned starts that do not overlap the source window at 0.
  std::vector<std::size_t> candidates;
  for (std::size_t start = 0; start + window_samples <= len;
       start += stride_samples) {
    if (start >= window_samples) candidates.push_back(start);
  }
  std::shuffle(candidates.begin(), candidates.end(), std::mt19937_64(seed));

  // Greedy pick keeping destinations a full window apart from each other,
  // so a later copy can never overwrite part of an earlier one.
  std::vector<std::size_t> chosen;
  for (std::size_t start : candidates) {
    if (chosen.size() >= target) break;
    const bool clashes = std::any_of(
        chosen.begin(), chosen.end(), [&](std::size_t c) {
          return start < c + window_samples && c < start + window_samples;
        });
    if (!clashes) chosen.push_back(start);
  }
  std::sort(chosen.begin(), chosen.end());

  const auto src_r = [&] {
    std::vector<std::size_t> v;
    for (std::size_t p : rec.r_peaks) {
      if (p < window_samples) v.push_back(p);
    }
    return v;
  }();
  const auto src_s = [&] {
    std::vector<std::size_t> v;
    for (std::size_t p : rec.systolic_peaks) {
      if (p < window_samples) v.push_back(p);
    }
    return v;
  }();

  for (std::size_t dst : chosen) {
    for (std::size_t i = 0; i < window_samples; ++i) {
      rec.ecg[dst + i] = rec.ecg[i];
      rec.abp[dst + i] = rec.abp[i];
    }
    const auto remap = [&](std::vector<std::size_t>& peaks,
                           const std::vector<std::size_t>& src) {
      std::erase_if(peaks, [&](std::size_t p) {
        return p >= dst && p < dst + window_samples;
      });
      for (std::size_t p : src) peaks.push_back(dst + p);
      std::sort(peaks.begin(), peaks.end());
    };
    remap(rec.r_peaks, src_r);
    remap(rec.systolic_peaks, src_s);
  }
  return chosen.size();
}

}  // namespace sift::physio
