// Microbenchmarks for the wire's decode layer (google-benchmark): the frame
// CRC-32 on both of its paths, and one PACKET frame through the decoder the
// gateway's net loop runs (FrameDecoder + wire::decode_packet). 1468 bytes
// is the payload of a 180-sample packet, the size every frame of a
// gateway run carries.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "io/framed.hpp"
#include "net/wire.hpp"
#include "wiot/packet.hpp"

namespace {

using namespace sift;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

using Crc32Fn = std::uint32_t (*)(std::span<const std::uint8_t>,
                                  std::uint32_t) noexcept;

void BM_Crc32(benchmark::State& state, Crc32Fn crc) {
  const auto bytes =
      random_bytes(static_cast<std::size_t>(state.range(0)), 1468);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(bytes, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32, sliced, io::detail::crc32_sliced)->Arg(1468);
BENCHMARK_CAPTURE(BM_Crc32, folded, io::detail::crc32_folded)->Arg(1468);

void BM_DecodePacketFrame(benchmark::State& state) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> ecg(0.0, 1.0);
  wiot::Packet packet;
  packet.kind = wiot::ChannelKind::kEcg;
  packet.seq = 42;
  packet.sample_rate_hz = 360.0;
  for (int i = 0; i < 180; ++i) packet.samples.push_back(ecg(rng));
  packet.peaks = {17, 131};
  net::wire::Encoder encoder;
  std::vector<std::uint8_t> frame;
  encoder.packet(frame, 3, packet);

  io::FrameDecoder decoder;
  decoder.reserve(2 * frame.size());
  wiot::Packet parsed;
  for (auto _ : state) {
    decoder.feed(frame);
    const auto payload = decoder.next();
    benchmark::DoNotOptimize(net::wire::decode_packet(*payload, parsed));
    benchmark::DoNotOptimize(parsed.samples.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodePacketFrame);

}  // namespace

BENCHMARK_MAIN();
