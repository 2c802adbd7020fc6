// The traced run's layer walk. The workload's own packets are replayed one
// stage at a time on this thread, each stage a span sharing its window's
// id, so the verdict path's cost splits by layer:
//
//   net.decode       io::FrameDecoder + wire::decode_packet
//   wiot.validate    validate_packet
//   wiot.reassemble  BaseStation::receive (detector-less station)
//   core.portrait    Portrait::rebuild
//   core.features    CountMatrix::rebuild + extract_features_into
//   ml.svm           Scaler::transform_into + Svm::decision_value
//   durable.append   Durability::on_verdict
//
// Then the layers that work on many sessions at once are timed around
// their public calls: FleetEngine::ingest, Durability::checkpoint and
// recover_into, ModelRegistry::warm_load from a cohort ModelStore, and the
// resident memory one more BaseStation costs.
#include <malloc.h>

#include <algorithm>
#include <filesystem>

#include "cohort/model_store.hpp"
#include "common.hpp"
#include "core/detector.hpp"
#include "core/features.hpp"
#include "fleet/durable/durability.hpp"
#include "io/framed.hpp"
#include "net/wire.hpp"
#include "physio/dataset.hpp"
#include "wiot/validate.hpp"

namespace perfbench {

using namespace sift;
namespace fs = std::filesystem;

namespace {

enum Stage : std::size_t {
  kWindow,
  kDecode,
  kValidate,
  kReassemble,
  kPortrait,
  kFeatures,
  kSvm,
  kAppend,
};

/// One window's samples and window-relative peaks, concatenated from its
/// packets exactly as BaseStation reassembles them.
struct WindowInput {
  std::vector<double> ecg, abp;
  std::vector<std::size_t> r_peaks, sys_peaks;
};

std::size_t packets_per_window() {
  const wiot::BaseStation::Config station;
  return 2 * station.window_samples / station.samples_per_packet;
}

WindowInput window_input(const std::vector<wiot::Packet>& trace,
                         std::size_t window) {
  WindowInput in;
  const std::size_t per = packets_per_window();
  for (std::size_t s = window * per; s < (window + 1) * per; ++s) {
    const wiot::Packet& p = trace[s];
    const bool ecg = p.kind == wiot::ChannelKind::kEcg;
    std::vector<double>& samples = ecg ? in.ecg : in.abp;
    std::vector<std::size_t>& peaks = ecg ? in.r_peaks : in.sys_peaks;
    for (std::size_t rel : p.peaks) peaks.push_back(samples.size() + rel);
    samples.insert(samples.end(), p.samples.begin(), p.samples.end());
  }
  return in;
}

void stepwise(const WalkInput& in, Result& out) {
  const auto& traces = *in.traces;
  const std::size_t per = packets_per_window();
  const std::size_t windows_per_trace = traces[0].size() / per;

  // Everything that is not a stage is prepared before the first span.
  std::vector<std::vector<WindowInput>> windows(traces.size());
  for (std::size_t u = 0; u < traces.size(); ++u) {
    for (std::size_t w = 0; w < windows_per_trace; ++w) {
      windows[u].push_back(window_input(traces[u], w));
    }
  }
  const std::string journal_dir = in.work_dir + "/walk-journal";
  fs::create_directories(journal_dir);
  fleet::durable::Durability durability(journal_dir);
  wiot::BaseStation::Config station_config;
  station_config.max_report_history = 16;
  std::vector<wiot::BaseStation> stations;
  stations.reserve(traces.size());
  for (std::size_t u = 0; u < traces.size(); ++u) {
    stations.emplace_back(station_config);
  }
  std::vector<io::FrameDecoder> decoders(traces.size());
  wiot::ValidationLimits limits;
  limits.expected_samples = station_config.samples_per_packet;

  Tracer tracer({"walk.window", "net.decode", "wiot.validate",
                 "wiot.reassemble", "core.portrait", "core.features",
                 "ml.svm", "durable.append"});
  net::wire::Encoder encoder;
  std::vector<std::uint8_t> frame;
  wiot::Packet source, decoded;
  core::WindowScratch scratch, check_scratch;
  core::FeatureVector features, scaled;
  const fleet::Session::Health health;
  std::uint64_t window_id = 0, frame_bytes = 0, frames = 0, mismatches = 0;

  for (std::size_t w = 0; w < windows_per_trace; ++w) {
    for (std::size_t u = 0; u < traces.size(); ++u) {
      const int user = static_cast<int>(u);
      const auto model_ptr = in.models(user);
      const core::UserModel& model = *model_ptr;
      const int root = tracer.begin(kWindow, -1, window_id);
      for (std::size_t s = w * per; s < (w + 1) * per; ++s) {
        looped_packet(traces[u], s, source);
        frame.clear();
        encoder.packet(frame, user, source);
        frame_bytes += frame.size();
        ++frames;

        int span = tracer.begin(kDecode, root, window_id);
        decoders[u].feed(frame);
        const auto payload = decoders[u].next();
        std::int32_t decoded_user = -1;
        if (payload && net::wire::message_type(*payload) ==
                           net::wire::MsgType::kPacket) {
          decoded_user = net::wire::decode_packet(*payload, decoded);
        }
        tracer.end(span);
        if (decoded_user != user) {
          ++mismatches;
          continue;
        }

        span = tracer.begin(kValidate, root, window_id);
        const wiot::PacketFault fault = wiot::validate_packet(decoded, limits);
        tracer.end(span);
        if (fault != wiot::PacketFault::kNone) ++mismatches;

        span = tracer.begin(kReassemble, root, window_id);
        stations[u].receive(decoded);
        tracer.end(span);
      }
      if (stations[u].stats().windows_classified != w + 1) ++mismatches;

      const WindowInput& wi = windows[u][w];
      core::PortraitInput portrait_in;
      portrait_in.ecg = wi.ecg;
      portrait_in.abp = wi.abp;
      portrait_in.r_peaks = wi.r_peaks;
      portrait_in.sys_peaks = wi.sys_peaks;
      portrait_in.sample_rate_hz = physio::kDefaultRateHz;

      int span = tracer.begin(kPortrait, root, window_id);
      scratch.portrait.rebuild(portrait_in);
      tracer.end(span);

      span = tracer.begin(kFeatures, root, window_id);
      scratch.matrix.rebuild(scratch.portrait, model.config.grid_n);
      core::extract_features_into(scratch.portrait, scratch.matrix,
                                  model.config.version,
                                  model.config.arithmetic, features);
      tracer.end(span);

      span = tracer.begin(kSvm, root, window_id);
      scaled.resize(features.size());
      model.scaler.transform_into(features.span(), scaled.span());
      const double decision = model.svm.decision_value(scaled.span());
      tracer.end(span);

      wiot::BaseStation::WindowReport report;
      report.window_index = w;
      report.decision_value = decision;
      report.altered = decision >= 0.0 ||
                       scratch.portrait.r_peak_points().empty() ||
                       scratch.portrait.systolic_peak_points().empty();
      span = tracer.begin(kAppend, root, window_id);
      durability.on_verdict(user, report, health, 0);
      tracer.end(span);
      tracer.end(root);

      // The stage-by-stage replica must agree with the detector itself.
      const auto reference =
          core::Detector(model_ptr).classify(portrait_in, check_scratch);
      if (reference.decision_value != decision ||
          reference.altered != report.altered) {
        ++mismatches;
      }
      ++window_id;
    }
  }
  durability.flush();
  if (mismatches != 0) {
    out.fail("layer walk: " + std::to_string(mismatches) +
             " stage result(s) disagree with the detector");
  }
  tracer.summarize(out);
  out.put("net.bytes_per_packet",
          static_cast<double>(frame_bytes) / static_cast<double>(frames), "B",
          frames);
  tracer.write_csv(in.span_csv);
}

/// Closed-loop FleetEngine::ingest timing, then checkpoint and recovery of
/// the sessions it created.
void ingest_and_durability(const WalkInput& in, Result& out) {
  const auto& traces = *in.traces;
  const std::string dir = in.work_dir + "/walk-engine";
  fs::create_directories(dir);
  fleet::FleetConfig config = in.fleet;

  std::size_t sessions = 0;
  {
    fleet::durable::Durability durability(dir);
    config.durability = &durability;
    fleet::FleetEngine engine(in.models, config);
    std::vector<double> call_us;
    call_us.reserve(1u << 20);
    wiot::Packet packet;
    const auto t0 = Clock::now();
    auto now = t0;
    for (std::size_t step = 0; seconds_between(t0, now) < in.ingest_seconds;
         ++step) {
      for (std::size_t u = 0; u < traces.size(); ++u) {
        looped_packet(traces[u], step, packet);
        const auto a = Clock::now();
        const bool accepted = engine.ingest(static_cast<int>(u), std::move(packet));
        now = Clock::now();
        call_us.push_back(std::chrono::duration<double, std::micro>(now - a).count());
        if (!accepted) {
          out.fail("walk: ingest rejected a packet");
          return;
        }
      }
    }
    const double wall_us =
        std::chrono::duration<double, std::micro>(now - t0).count();
    const double p50 = quantile(call_us, 0.50);
    // A call far above the median waited on a full ring (kBlock).
    double blocked_us = 0.0;
    for (double c : call_us) {
      if (c > 10.0 * p50) blocked_us += c;
    }
    out.put("fleet.ingest.p50_us", p50, "us", call_us.size());
    out.put("fleet.ingest.p99_us", quantile(call_us, 0.99), "us", call_us.size());
    out.put("fleet.ingest.blocked_frac", blocked_us / wall_us, "ratio",
            call_us.size());

    std::vector<double> checkpoint_ms;
    for (int rep = 0; rep < 3; ++rep) {
      const auto a = Clock::now();
      durability.checkpoint(engine);
      checkpoint_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
    }
    sessions = engine.sessions().active_sessions();
    out.put("durable.checkpoint.ms", median(checkpoint_ms), "ms", 3);
    out.put("durable.checkpoint.bytes_per_session",
            static_cast<double>(fs::file_size(durability.checkpoint_path())) /
                static_cast<double>(std::max<std::size_t>(1, sessions)),
            "B", sessions);
    engine.drain();
    durability.checkpoint(engine);  // cover the drained tail
    std::uint64_t flushes = 0;
    for (std::size_t s = 0; s < durability.segment_count(); ++s) {
      flushes += durability.journal(s).flushes();
    }
    const double appends =
        static_cast<double>(std::max<std::uint64_t>(1, durability.journal_appends()));
    out.put("durable.bytes_per_verdict",
            static_cast<double>(durability.journal_bytes()) / appends, "B",
            durability.journal_appends());
    out.put("durable.flushes_per_kverdict",
            static_cast<double>(flushes) * 1000.0 / appends, "count",
            durability.journal_appends());
  }

  // Recovery: journal scan (Durability's constructor) plus recover_into.
  const auto a = Clock::now();
  fleet::durable::Durability durability(dir);
  const double open_s = seconds_between(a, Clock::now());
  config.durability = &durability;
  fleet::FleetEngine engine(in.models, config);
  const auto b = Clock::now();
  const auto recovered = durability.recover_into(engine);
  const double recover_s = open_s + seconds_between(b, Clock::now());
  engine.drain();
  if (recovered.sessions_restored != sessions) {
    out.fail("walk: recovered " + std::to_string(recovered.sessions_restored) +
             " of " + std::to_string(sessions) + " session(s)");
  }
  out.put("durable.recover.ms", recover_s * 1e3, "ms", sessions);
}

void store_load(const WalkInput& in, Result& out) {
  constexpr int kStoreUsers = 64;
  cohort::ModelStore store(in.work_dir + "/walk-store");
  std::vector<int> ids;
  for (int id = 0; id < kStoreUsers; ++id) {
    core::UserModel model = *in.models(id);
    model.user_id = id;
    store.save(model);
    ids.push_back(id);
  }
  store.write_manifest(ids);
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    fleet::ModelRegistry registry(store.provider(), ids.size());
    const auto a = Clock::now();
    const std::size_t loaded =
        registry.warm_load(ids, core::DetectorVersion::kOriginal);
    ms.push_back(seconds_between(a, Clock::now()) * 1e3);
    if (loaded != ids.size()) out.fail("walk: model store warm-load incomplete");
  }
  out.put("cohort.store_load.ms", median(ms), "ms", 3);
}

/// Heap bytes in use, which an RSS delta cannot show once the allocator
/// recycles memory the walk's earlier engines already made resident. The
/// station's rings are zero-filled, so every byte counted is touched.
double heap_in_use_kb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1024.0;
}

void session_memory(const WalkInput& in, Result& out) {
  const std::size_t n = in.traces->size();
  std::vector<wiot::BaseStation> stations;
  stations.reserve(n);
  const double before = heap_in_use_kb();
  for (std::size_t i = 0; i < n; ++i) stations.emplace_back(in.fleet.station);
  out.put("wiot.session_kb",
          (heap_in_use_kb() - before) / static_cast<double>(n), "KB", n);
}

}  // namespace

void run_layer_walk(const WalkInput& in, Result& out) {
  stepwise(in, out);
  ingest_and_durability(in, out);
  store_load(in, out);
  session_memory(in, out);
}

}  // namespace perfbench
