#include "amulet/sift_app.hpp"

#include <stdexcept>

#include "amulet/energy_model.hpp"
#include "core/windows.hpp"

namespace sift::amulet {

SiftApp::SiftApp(core::UserModel model, const physio::Record& prestored,
                 Scheduler& scheduler, LedDisplay* display)
    : App("sift-" + std::string(core::to_string(model.config.version))),
      model_(std::move(model)),
      folded_(ml::fold_scaler(model_.scaler, model_.svm)),
      prestored_(prestored),
      scheduler_(scheduler),
      display_(display),
      window_samples_(core::to_samples(model_.config.window_s,
                                       prestored.ecg.sample_rate_hz())) {
  if (window_samples_ == 0 || prestored_.ecg.size() < window_samples_) {
    throw std::invalid_argument("SiftApp: trace shorter than one window");
  }
}

std::size_t SiftApp::window_count() const noexcept {
  return prestored_.ecg.size() / window_samples_;
}

void SiftApp::on_event(const Event& event) {
  switch (event.signal) {
    case kInitSignal:
      return;  // state machine starts idle in PeaksDataCheck
    case kSigWindowReady:
      on_peaks_data_check(std::any_cast<std::size_t>(event.payload));
      return;
    case kSigPeaksChecked:
      on_feature_extraction(std::any_cast<std::size_t>(event.payload));
      return;
    case kSigFeaturesReady:
      on_ml_classifier(std::any_cast<std::size_t>(event.payload));
      return;
    default:
      throw std::logic_error("SiftApp: unexpected signal " +
                             std::to_string(event.signal));
  }
}

void SiftApp::on_peaks_data_check(std::size_t window_index) {
  if (window_index >= window_count()) {
    throw std::out_of_range("SiftApp: window index out of range");
  }
  ++stats_.peaks_check.activations;

  // Fetch the window's peak annotations (the pre-stored indexes) and sanity
  // check them against the snippet bounds — this state's entire job, plus
  // showing the snippet on the LED screen.
  const std::size_t start = window_index * window_samples_;
  const auto r = core::peaks_in_range(prestored_.r_peaks, start,
                                      window_samples_);
  const auto s = core::peaks_in_range(prestored_.systolic_peaks, start,
                                      window_samples_);
  staged_peak_count_ = r.size() + s.size();
  // Data validation (mirrors core::Detector): a window with no heartbeat
  // cannot be genuine; flag it so MLClassifier alerts unconditionally.
  staged_peaks_ok_ = !r.empty() && !s.empty();
  stats_.peaks_check.ops += fetch_ops(window_samples_);
  ++stats_.peaks_check.display_updates;  // snippet shown on screen
  if (display_ != nullptr) {
    display_->show("win " + std::to_string(window_index) + ": " +
                   std::to_string(r.size()) + "R/" + std::to_string(s.size()) +
                   "S peaks");
  }

  scheduler_.post(*this, Event{kSigPeaksChecked, window_index});
}

void SiftApp::on_feature_extraction(std::size_t window_index) {
  ++stats_.feature_extraction.activations;
  const std::size_t start = window_index * window_samples_;

  // Built in the thread's arena: no portrait grid or matrix per window.
  core::WindowScratch& scratch = core::thread_scratch();
  core::FeatureRowExtractor rows(model_.config.grid_n,
                                 model_.config.arithmetic, scratch);
  rows.set_window(prestored_, prestored_, start, window_samples_);

  // Classification uses the configured on-device arithmetic; the op counts
  // come from an instrumented pass over the identical feature math.
  const auto features = rows.features(model_.config.version);
  staged_features_.assign(features.begin(), features.end());
  core::OpCounts feature_ops;
  core::extract_features_counted(scratch.portrait, scratch.matrix,
                                 model_.config.version, feature_ops);

  stats_.feature_extraction.ops += feature_ops;
  stats_.feature_extraction.ops += portrait_ops(
      window_samples_, model_.config.version, staged_peak_count_);
  stats_.feature_extraction.ops +=
      binning_ops(window_samples_, model_.config.version);

  scheduler_.post(*this, Event{kSigFeaturesReady, window_index});
}

void SiftApp::on_ml_classifier(std::size_t window_index) {
  ++stats_.ml_classifier.activations;
  stats_.ml_classifier.ops += classifier_ops(staged_features_.size());

  WindowVerdict v;
  v.window_index = window_index;
  v.decision_value = folded_.decision_value(staged_features_);
  v.altered = v.decision_value >= 0.0 || !staged_peaks_ok_;
  if (v.altered) {
    ++stats_.alerts;
    ++stats_.ml_classifier.display_updates;  // alert on the LED screen
    if (display_ != nullptr) {
      display_->show("!! ALERT win " + std::to_string(window_index));
    }
  }
  stats_.verdicts.push_back(v);
  ++stats_.windows_processed;
}

const SiftApp::RunStats& run_app_over_trace(SiftApp& app,
                                            Scheduler& scheduler) {
  for (std::size_t w = 0; w < app.window_count(); ++w) {
    scheduler.post(app, Event{kSigWindowReady, w});
    scheduler.run();  // each window drains before the next arrives
  }
  return app.stats();
}

}  // namespace sift::amulet
