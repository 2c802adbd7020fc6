#include "core/detector.hpp"

#include "core/windows.hpp"

namespace sift::core {

DetectionResult Detector::classify(const Portrait& portrait,
                                   WindowScratch& scratch) const {
  DetectionResult r;
  scratch.matrix.rebuild(portrait, model_->config.grid_n);
  extract_features_into(portrait, scratch.matrix, model_->config.version,
                        model_->config.arithmetic, r.features);
  FeatureVector scaled;
  scaled.resize(r.features.size());
  model_->scaler.transform_into(r.features.span(), scaled.span());
  r.decision_value = model_->svm.decision_value(scaled.span());
  r.altered = r.decision_value >= 0.0;
  if (portrait.r_peak_points().empty() ||
      portrait.systolic_peak_points().empty()) {
    r.peak_check_failed = true;
    r.altered = true;
  }
  return r;
}

DetectionResult Detector::classify(const PortraitInput& window,
                                   WindowScratch& scratch) const {
  scratch.portrait.rebuild(window, model_->config.grid_n);
  return classify(scratch.portrait, scratch);
}

DetectionResult Detector::classify(const Portrait& portrait) const {
  WindowScratch scratch;
  return classify(portrait, scratch);
}

DetectionResult Detector::classify(const PortraitInput& window) const {
  return classify(Portrait(window, model_->config.grid_n));
}

std::vector<DetectionResult> Detector::classify_record(
    const physio::Record& rec) const {
  const double rate = rec.ecg.sample_rate_hz();
  const std::size_t window = to_samples(model_->config.window_s, rate);
  std::vector<DetectionResult> out;
  if (window == 0 || rec.ecg.size() < window) return out;
  out.reserve(rec.ecg.size() / window);
  WindowScratch scratch;
  for (std::size_t start = 0; start + window <= rec.ecg.size();
       start += window) {
    make_window_portrait_into(rec, start, window, scratch,
                              model_->config.grid_n);
    out.push_back(classify(scratch.portrait, scratch));
  }
  return out;
}

}  // namespace sift::core
