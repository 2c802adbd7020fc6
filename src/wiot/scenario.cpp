#include "wiot/scenario.hpp"

#include "core/windows.hpp"
#include "wiot/sensor_node.hpp"

namespace sift::wiot {

ScenarioResult run_scenario(const core::Detector& detector,
                            const physio::Record& source,
                            const std::vector<bool>& ground_truth,
                            const ScenarioConfig& config) {
  const double rate = source.ecg.sample_rate_hz();
  const std::size_t window_samples =
      core::to_samples(detector.model().config.window_s, rate);

  SensorNode ecg_node(ChannelKind::kEcg, source, config.samples_per_packet);
  SensorNode abp_node(ChannelKind::kAbp, source, config.samples_per_packet);
  LossyChannel ecg_link(config.ecg_channel);
  LossyChannel abp_link(config.abp_channel);
  BaseStation station(detector,
                      {window_samples, config.samples_per_packet});

  // Lock-step streaming: both sensors emit one packet per tick, as their
  // shared sampling clock dictates.
  while (true) {
    const auto ecg_pkt = ecg_node.poll();
    const auto abp_pkt = abp_node.poll();
    if (!ecg_pkt && !abp_pkt) break;
    if (ecg_pkt) {
      for (const Packet& p : ecg_link.transmit(*ecg_pkt)) station.receive(p);
    }
    if (abp_pkt) {
      for (const Packet& p : abp_link.transmit(*abp_pkt)) station.receive(p);
    }
  }

  ScenarioResult result;
  for (const auto& report : station.reports()) result.sink.deliver(report);
  result.station_stats = station.stats();
  result.ecg_packets_dropped = ecg_link.packets_dropped();
  result.abp_packets_dropped = abp_link.packets_dropped();

  if (!ground_truth.empty()) {
    ml::ConfusionMatrix cm;
    for (const auto& report : station.reports()) {
      if (report.degraded) continue;
      if (report.window_index >= ground_truth.size()) break;
      cm.add(report.altered ? +1 : -1,
             ground_truth[report.window_index] ? +1 : -1);
    }
    result.confusion = cm;
  }
  return result;
}

}  // namespace sift::wiot
