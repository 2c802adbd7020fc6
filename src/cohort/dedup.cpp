#include "cohort/dedup.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "core/splitmix.hpp"

namespace sift::cohort {
namespace {

/// Samples are quantised before hashing (~1e-6 resolution over the
/// physiological range) so the hash is stable against how a value was
/// produced while still separating genuinely different windows; equality
/// itself is decided by memcmp on the exact bytes, never by the hash.
std::int64_t quantize(double x) {
  if (!std::isfinite(x)) return std::bit_cast<std::int64_t>(x);
  return std::llround(x * 1048576.0);  // 2^20
}

}  // namespace

std::uint64_t WindowDedup::hash_window(
    std::span<const double> ecg, std::span<const double> abp,
    std::span<const std::size_t> r_peaks,
    std::span<const std::size_t> sys_peaks) const {
  std::uint64_t h = 0x53494654ULL;  // "SIFT"
  for (double x : ecg) {
    h = core::splitmix64(h ^ static_cast<std::uint64_t>(quantize(x)));
  }
  for (double x : abp) {
    h = core::splitmix64(h ^ static_cast<std::uint64_t>(quantize(x)));
  }
  h = core::splitmix64(h ^ r_peaks.size());
  for (std::size_t p : r_peaks) h = core::splitmix64(h ^ p);
  h = core::splitmix64(h ^ sys_peaks.size());
  for (std::size_t p : sys_peaks) h = core::splitmix64(h ^ p);
  return h;
}

void WindowDedup::serialize_window(std::span<const double> ecg,
                                   std::span<const double> abp,
                                   std::span<const std::size_t> r_peaks,
                                   std::span<const std::size_t> sys_peaks,
                                   std::vector<std::uint8_t>& out) const {
  const auto put_u32 = [&out](std::uint32_t v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  };
  const auto put_doubles = [&out](std::span<const double> xs) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(xs.data());
    out.insert(out.end(), p, p + xs.size_bytes());
  };
  out.clear();
  put_u32(static_cast<std::uint32_t>(ecg.size()));
  put_doubles(ecg);
  put_doubles(abp);
  put_u32(static_cast<std::uint32_t>(r_peaks.size()));
  for (std::size_t p : r_peaks) put_u32(static_cast<std::uint32_t>(p));
  put_u32(static_cast<std::uint32_t>(sys_peaks.size()));
  for (std::size_t p : sys_peaks) put_u32(static_cast<std::uint32_t>(p));
}

bool WindowDedup::insert(std::span<const double> ecg,
                         std::span<const double> abp,
                         std::span<const std::size_t> r_peaks,
                         std::span<const std::size_t> sys_peaks) {
  const std::uint64_t h = hash_window(ecg, abp, r_peaks, sys_peaks);
  serialize_window(ecg, abp, r_peaks, sys_peaks, scratch_);

  auto& bucket = table_[h];
  for (const auto& stored : bucket) {
    if (stored.size() == scratch_.size() &&
        std::memcmp(stored.data(), scratch_.data(), stored.size()) == 0) {
      ++hits_;
      return false;
    }
  }
  if (!bucket.empty()) ++collisions_;
  bucket.push_back(scratch_);
  ++table_size_;
  return true;
}

}  // namespace sift::cohort
