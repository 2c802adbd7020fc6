#include "physio/abp_model.hpp"

#include <cmath>
#include <numbers>
#include <random>

#include "physio/gauss.hpp"

namespace sift::physio {
namespace {

// Pressure contribution at offset dt (seconds) after a pulse foot.
// Piecewise: half-sine systolic upstroke, then exponential diastolic decay
// carrying a Gaussian dicrotic notch and a small reflected-wave rebound.
double pulse_shape(const AbpMorphology& m, double dt) {
  if (dt < 0.0) return 0.0;
  if (dt < m.upstroke_s) {
    return m.pulse_pressure_mmhg *
           std::sin(std::numbers::pi / 2.0 * dt / m.upstroke_s);
  }
  const double decay =
      m.pulse_pressure_mmhg * std::exp(-(dt - m.upstroke_s) / m.decay_tau_s);
  const double notch_center = m.upstroke_s + m.notch_time_s;
  const double notch =
      -m.notch_depth_mmhg * gauss((dt - notch_center) / 0.025);
  const double rebound =
      0.5 * m.notch_depth_mmhg * gauss((dt - notch_center - 0.08) / 0.04);
  return decay + notch + rebound;
}

}  // namespace

AbpTrace synthesize_abp(const AbpMorphology& m,
                        const std::vector<double>& beats, double duration_s,
                        double rate_hz, std::uint64_t seed) {
  AbpTrace out{signal::Series(rate_hz), {}};
  const auto n = static_cast<std::size_t>(duration_s * rate_hz);
  out.abp.reserve(n);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, m.noise_sd_mmhg);

  // Pulse feet: one per beat, delayed by the pulse-transit time.
  std::vector<double> feet;
  feet.reserve(beats.size());
  for (double b : beats) feet.push_back(b + m.transit_time_s);

  std::size_t current = 0;  // index of the pulse foot governing time t
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / rate_hz;
    while (current + 1 < feet.size() && feet[current + 1] <= t) ++current;
    double v = m.diastolic_mmhg;
    if (!feet.empty() && t >= feet[current]) {
      v += pulse_shape(m, t - feet[current]);
    }
    v += noise(rng);
    out.abp.push_back(v);
  }

  for (double foot : feet) {
    const double peak_t = foot + m.upstroke_s;
    const auto idx = static_cast<std::size_t>(peak_t * rate_hz + 0.5);
    if (idx < n) out.systolic_peak_indices.push_back(idx);
  }
  return out;
}

}  // namespace sift::physio
