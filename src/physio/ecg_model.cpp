#include "physio/ecg_model.hpp"

#include <cmath>
#include <numbers>
#include <random>

#include "physio/gauss.hpp"

namespace sift::physio {
namespace {

double gaussian(double t, const Wave& w) {
  return w.amplitude_mv * gauss((t - w.center_s) / w.width_s);
}

// Contribution of one beat's PQRST complex at offset dt from its R instant.
// Wave centers/widths are stretched with the local RR interval so slow beats
// widen proportionally (as real cardiac cycles do, mostly in diastole).
double beat_value(const EcgMorphology& m, double dt, double rr_scale) {
  double v = 0.0;
  for (const Wave* w : {&m.p, &m.q, &m.r, &m.s, &m.t}) {
    Wave scaled = *w;
    scaled.center_s *= rr_scale;
    scaled.width_s *= std::sqrt(rr_scale);
    v += gaussian(dt, scaled);
  }
  return v;
}

}  // namespace

EcgTrace synthesize_ecg(const EcgMorphology& m,
                        const std::vector<double>& beats, double duration_s,
                        double rate_hz, std::uint64_t seed) {
  EcgTrace out{signal::Series(rate_hz), {}};
  const auto n = static_cast<std::size_t>(duration_s * rate_hz);
  out.ecg.reserve(n);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, m.noise_sd_mv);

  // Pre-compute per-beat RR scales (relative to the median-ish 0.85 s cycle).
  std::vector<double> rr_scale(beats.size(), 1.0);
  for (std::size_t b = 0; b + 1 < beats.size(); ++b) {
    rr_scale[b] = (beats[b + 1] - beats[b]) / 0.85;
  }
  if (beats.size() >= 2) rr_scale.back() = rr_scale[beats.size() - 2];

  std::size_t next_beat = 0;  // first beat with time >= current window start
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / rate_hz;
    while (next_beat < beats.size() && beats[next_beat] < t - 1.2) ++next_beat;
    double v = m.baseline_mv +
               m.baseline_wander_mv *
                   std::sin(2.0 * std::numbers::pi * 0.25 * t);
    // Sum contributions of beats within ±1.2 s (a full cycle's reach).
    for (std::size_t b = next_beat; b < beats.size() && beats[b] < t + 1.2;
         ++b) {
      v += beat_value(m, t - beats[b], rr_scale[b]);
    }
    v += noise(rng);
    out.ecg.push_back(v);
  }

  for (double bt : beats) {
    const auto idx = static_cast<std::size_t>(bt * rate_hz + 0.5);
    if (idx < n) out.r_peak_indices.push_back(idx);
  }
  return out;
}

}  // namespace sift::physio
