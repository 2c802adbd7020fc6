// Tests for the WIoT environment: sensor nodes, lossy channels, the base
// station's stream alignment, the sink, and the end-to-end scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "attack/attack.hpp"
#include "attack/scenario.hpp"
#include "core/trainer.hpp"
#include "io/state.hpp"
#include "physio/dataset.hpp"
#include "wiot/base_station.hpp"
#include "wiot/channel.hpp"
#include "wiot/validate.hpp"
#include "wiot/scenario.hpp"
#include "wiot/sensor_node.hpp"
#include "wiot/sink.hpp"

namespace sift::wiot {
namespace {

class WiotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto cohort = physio::synthetic_cohort(3, 404);
    training_ =
        new std::vector(physio::generate_cohort_records(cohort, 120.0));
    testing_ = new std::vector(physio::generate_cohort_records(
        cohort, 60.0, physio::kDefaultRateHz, 9));
    core::SiftConfig config;
    config.version = core::DetectorVersion::kOriginal;
    model_ = new core::UserModel(core::train_user_model(
        (*training_)[0], std::span(*training_).subspan(1), config));
  }
  static void TearDownTestSuite() {
    delete training_;
    delete testing_;
    delete model_;
    training_ = nullptr;
    testing_ = nullptr;
    model_ = nullptr;
  }

  static std::vector<physio::Record>* training_;
  static std::vector<physio::Record>* testing_;
  static core::UserModel* model_;
};

std::vector<physio::Record>* WiotTest::training_ = nullptr;
std::vector<physio::Record>* WiotTest::testing_ = nullptr;
core::UserModel* WiotTest::model_ = nullptr;

// --- SensorNode -------------------------------------------------------------

TEST_F(WiotTest, SensorNodeStreamsWholeRecordInOrder) {
  SensorNode node(ChannelKind::kEcg, (*testing_)[0], 180);
  std::size_t n = 0;
  std::size_t samples = 0;
  while (auto p = node.poll()) {
    EXPECT_EQ(p->seq, n);
    EXPECT_EQ(p->samples.size(), 180u);
    samples += p->samples.size();
    ++n;
  }
  EXPECT_EQ(samples, (*testing_)[0].ecg.size());
  EXPECT_EQ(node.packets_emitted(), n);
}

TEST_F(WiotTest, SensorNodePiggybacksWindowRelativePeaks) {
  SensorNode node(ChannelKind::kEcg, (*testing_)[0], 360);
  std::size_t total_peaks = 0;
  while (auto p = node.poll()) {
    for (std::size_t rel : p->peaks) {
      EXPECT_LT(rel, 360u);
      ++total_peaks;
    }
  }
  EXPECT_EQ(total_peaks, (*testing_)[0].r_peaks.size());
}

TEST(SensorNode, RejectsZeroBatch) {
  physio::Record rec;
  EXPECT_THROW(SensorNode(ChannelKind::kAbp, rec, 0), std::invalid_argument);
}

// --- LossyChannel -----------------------------------------------------------

TEST(LossyChannel, PerfectChannelDeliversEverything) {
  LossyChannel ch({0.0, 0.0, 1});
  Packet p;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ch.transmit(p).size(), 1u);
  }
  EXPECT_EQ(ch.packets_dropped(), 0u);
}

TEST(LossyChannel, DropRateConverges) {
  LossyChannel ch({0.2, 0.0, 7});
  Packet p;
  for (int i = 0; i < 5000; ++i) ch.transmit(p);
  const double rate = static_cast<double>(ch.packets_dropped()) / 5000.0;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(LossyChannel, DuplicatesDeliverTwoCopies) {
  LossyChannel ch({0.0, 1.0, 3});
  Packet p;
  EXPECT_EQ(ch.transmit(p).size(), 2u);
  EXPECT_EQ(ch.packets_duplicated(), 1u);
}

TEST(LossyChannel, ValidatesProbabilities) {
  EXPECT_THROW(LossyChannel({1.5, 0.0, 1}), std::invalid_argument);
  EXPECT_THROW(LossyChannel({0.0, -0.1, 1}), std::invalid_argument);
}

TEST(LossyChannel, FaultHookMutatesDeliveredCopies) {
  LossyChannel ch({0.0, 0.0, 1});
  ch.set_fault_hook([](Packet& p) {
    p.samples.push_back(std::numeric_limits<double>::quiet_NaN());
    return true;
  });
  Packet p;
  p.samples = {1.0, 2.0};
  const auto delivered = ch.transmit(p);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].samples.size(), 3u);
  EXPECT_TRUE(std::isnan(delivered[0].samples.back()));
  EXPECT_EQ(p.samples.size(), 2u) << "the sender's packet is untouched";
  EXPECT_EQ(ch.packets_corrupted(), 1u);
}

// --- validate_packet --------------------------------------------------------

Packet valid_packet(std::size_t n = 8) {
  Packet p;
  p.sample_rate_hz = 360.0;
  p.samples.assign(n, 0.5);
  p.peaks = {0, n - 1};
  return p;
}

TEST(ValidatePacket, AcceptsWellFormedPacket) {
  EXPECT_EQ(validate_packet(valid_packet()), PacketFault::kNone);
}

TEST(ValidatePacket, RejectsBadRate) {
  auto p = valid_packet();
  p.sample_rate_hz = 0.0;
  EXPECT_EQ(validate_packet(p), PacketFault::kBadRate);
  p.sample_rate_hz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(validate_packet(p), PacketFault::kBadRate);
  p.sample_rate_hz = 1e9;
  EXPECT_EQ(validate_packet(p), PacketFault::kBadRate);
}

TEST(ValidatePacket, RejectsBadLength) {
  Packet empty = valid_packet(4);
  empty.samples.clear();
  empty.peaks.clear();
  EXPECT_EQ(validate_packet(empty), PacketFault::kBadLength);

  ValidationLimits limits;
  limits.expected_samples = 8;
  auto truncated = valid_packet(5);
  EXPECT_EQ(validate_packet(truncated, limits), PacketFault::kBadLength);
  EXPECT_EQ(validate_packet(valid_packet(8), limits), PacketFault::kNone);

  auto oversize = valid_packet(4);
  oversize.samples.assign(ValidationLimits{}.max_samples + 1, 0.0);
  oversize.peaks.clear();
  EXPECT_EQ(validate_packet(oversize), PacketFault::kBadLength);
}

TEST(ValidatePacket, RejectsNonFiniteSamples) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    auto p = valid_packet();
    p.samples[3] = bad;
    EXPECT_EQ(validate_packet(p), PacketFault::kNonFiniteSample);
  }
}

TEST(ValidatePacket, RejectsPeaksBeyondPayload) {
  auto p = valid_packet(8);
  p.peaks = {8};  // one past the end
  EXPECT_EQ(validate_packet(p), PacketFault::kPeakOutOfRange);
}

TEST(ValidatePacket, RejectsInsaneSequenceNumbers) {
  auto p = valid_packet();
  p.seq = ValidationLimits{}.max_seq;
  EXPECT_EQ(validate_packet(p), PacketFault::kSeqInsane);
  p.seq = ValidationLimits{}.max_seq - 1;
  EXPECT_EQ(validate_packet(p), PacketFault::kNone);
}

// --- BaseStation ------------------------------------------------------------

TEST_F(WiotTest, LosslessStreamsMatchDirectClassification) {
  core::Detector detector(*model_);
  BaseStation station(detector, {1080, 180});
  SensorNode ecg(ChannelKind::kEcg, (*testing_)[0], 180);
  SensorNode abp(ChannelKind::kAbp, (*testing_)[0], 180);
  while (true) {
    auto pe = ecg.poll();
    auto pa = abp.poll();
    if (!pe && !pa) break;
    if (pe) station.receive(*pe);
    if (pa) station.receive(*pa);
  }
  const auto direct = detector.classify_record((*testing_)[0]);
  ASSERT_EQ(station.reports().size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(station.reports()[i].altered, direct[i].altered) << i;
    EXPECT_FALSE(station.reports()[i].degraded);
  }
}

TEST_F(WiotTest, DroppedPacketsProduceDegradedNotMisaligned) {
  core::Detector detector(*model_);
  BaseStation station(detector, {1080, 180});
  SensorNode ecg(ChannelKind::kEcg, (*testing_)[0], 180);
  SensorNode abp(ChannelKind::kAbp, (*testing_)[0], 180);
  std::size_t i = 0;
  while (true) {
    auto pe = ecg.poll();
    auto pa = abp.poll();
    if (!pe && !pa) break;
    // Drop every 13th ECG packet.
    if (pe && i % 13 != 12) station.receive(*pe);
    if (pa) station.receive(*pa);
    ++i;
  }
  EXPECT_GT(station.stats().gaps_filled, 0u);
  std::size_t degraded = 0;
  for (const auto& r : station.reports()) {
    if (r.degraded) ++degraded;
  }
  EXPECT_EQ(degraded, station.stats().gaps_filled)
      << "each filled packet degrades exactly its window (1080 = 6 packets)";
  EXPECT_EQ(station.reports().size(), (*testing_)[0].ecg.size() / 1080)
      << "stream alignment survives losses";
}

TEST_F(WiotTest, DuplicatesAreIgnored) {
  core::Detector detector(*model_);
  BaseStation station(detector, {1080, 180});
  SensorNode ecg(ChannelKind::kEcg, (*testing_)[0], 180);
  SensorNode abp(ChannelKind::kAbp, (*testing_)[0], 180);
  while (true) {
    auto pe = ecg.poll();
    auto pa = abp.poll();
    if (!pe && !pa) break;
    if (pe) {
      station.receive(*pe);
      station.receive(*pe);  // duplicate every ECG packet
    }
    if (pa) station.receive(*pa);
  }
  EXPECT_GT(station.stats().duplicates_ignored, 0u);
  for (const auto& r : station.reports()) EXPECT_FALSE(r.degraded);
}

TEST_F(WiotTest, ConfigValidation) {
  core::Detector detector(*model_);
  EXPECT_THROW(BaseStation(detector, {0, 180}), std::invalid_argument);
  EXPECT_THROW(BaseStation(detector, {1080, 0}), std::invalid_argument);
  EXPECT_THROW(BaseStation(detector, {1000, 180}), std::invalid_argument)
      << "window must be packet-aligned";
  BaseStation::Config tight{1080, 180};
  tight.max_buffered_windows = 1;
  EXPECT_THROW(BaseStation(detector, tight), std::invalid_argument)
      << "need one window being assembled plus lag headroom";
}

TEST_F(WiotTest, BufferBoundShedsWhenPeerChannelStalls) {
  core::Detector detector(*model_);
  BaseStation::Config config{1080, 180};
  config.max_buffered_windows = 2;  // 2160 samples = 12 packets per channel
  BaseStation station(detector, config);

  // Only ECG flows: windows can never complete, so the buffer bound must
  // engage instead of the station growing without limit.
  SensorNode ecg(ChannelKind::kEcg, (*testing_)[0], 180);
  std::size_t offered = 0;
  while (auto p = ecg.poll()) {
    station.receive(*p);
    ++offered;
  }
  ASSERT_GT(offered, 12u);
  EXPECT_EQ(station.stats().windows_classified, 0u);
  EXPECT_EQ(station.stats().overflow_dropped, offered - 12);

  // The ABP stream arrives late: the 2 buffered windows complete (and the
  // ABP side then sheds against its own bound) — no crash, no shear.
  SensorNode abp(ChannelKind::kAbp, (*testing_)[0], 180);
  while (auto p = abp.poll()) station.receive(*p);
  EXPECT_EQ(station.stats().windows_classified, 2u);
  for (const auto& r : station.reports()) EXPECT_FALSE(r.degraded);
}

TEST_F(WiotTest, OverflowShedsReadAsLossAndGapFillLater) {
  // Tiny geometry makes the arithmetic exact: window = 4 samples, packets
  // of 2, bound of 2 windows → each stream holds at most 8 samples.
  core::Detector detector(*model_);
  BaseStation::Config config;
  config.window_samples = 4;
  config.samples_per_packet = 2;
  config.max_buffered_windows = 2;
  BaseStation station(detector, config);

  auto packet = [](ChannelKind kind, std::uint32_t seq) {
    Packet p;
    p.kind = kind;
    p.seq = seq;
    p.samples = {0.1 * seq, 0.1 * seq + 0.05};
    return p;
  };

  // ECG seq 0..9: packets 0-3 fill the buffer, 4-9 are shed by the bound
  // without advancing next_seq (they must later read as loss).
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    station.receive(packet(ChannelKind::kEcg, seq));
  }
  EXPECT_EQ(station.stats().overflow_dropped, 6u);
  EXPECT_EQ(station.stats().gaps_filled, 0u);

  // ABP catches up: the first window [ecg 0-1 | abp 0-1] completes clean.
  station.receive(packet(ChannelKind::kAbp, 0));
  station.receive(packet(ChannelKind::kAbp, 1));
  ASSERT_EQ(station.stats().windows_classified, 1u);
  EXPECT_FALSE(station.reports()[0].degraded);

  // A later ECG packet triggers gap-fill of the shed span (packets 4, 5 fit
  // in the freed space; the rest shed again) — exactly the loss path.
  station.receive(packet(ChannelKind::kEcg, 10));
  EXPECT_EQ(station.stats().gaps_filled, 2u);

  // Window 2 is the surviving real packets 2-3; window 3 is the
  // reconstructed span and must be flagged degraded, not misaligned.
  station.receive(packet(ChannelKind::kAbp, 2));
  station.receive(packet(ChannelKind::kAbp, 3));
  station.receive(packet(ChannelKind::kAbp, 4));
  station.receive(packet(ChannelKind::kAbp, 5));
  ASSERT_EQ(station.stats().windows_classified, 3u);
  EXPECT_FALSE(station.reports()[1].degraded) << "real packets 2-3";
  EXPECT_TRUE(station.reports()[2].degraded) << "sample-and-hold span";
}

// Same windows, same verdicts, whichever channel leads: ABP lagging up to
// 15 windows behind ECG still fits the default 16-window bound, so nothing
// is shed and every report matches the interleaved run bit for bit. ECG
// packets 5 and 6 are lost, so their gap-fill run straddles the boundary
// between windows 0 and 1.
TEST_F(WiotTest, ReportsAreInvariantToArrivalSkew) {
  const physio::Record& rec = (*testing_)[0];
  std::vector<Packet> ecg;
  std::vector<Packet> abp;
  SensorNode ecg_node(ChannelKind::kEcg, rec, 180);
  SensorNode abp_node(ChannelKind::kAbp, rec, 180);
  while (auto p = ecg_node.poll()) ecg.push_back(*p);
  while (auto p = abp_node.poll()) abp.push_back(*p);
  ASSERT_EQ(ecg.size(), abp.size());

  auto run = [&](std::size_t lag_windows) {
    BaseStation station(core::Detector(*model_), {1080, 180});
    const std::size_t lag = lag_windows * (1080 / 180);
    for (std::size_t i = 0; i < ecg.size() + lag; ++i) {
      if (i < ecg.size() && i != 5 && i != 6) station.receive(ecg[i]);
      if (i >= lag) station.receive(abp[i - lag]);
    }
    EXPECT_EQ(station.stats().overflow_dropped, 0u) << "lag " << lag_windows;
    EXPECT_EQ(station.stats().gaps_filled, 2u) << "lag " << lag_windows;
    return station.reports();
  };

  const auto interleaved = run(0);
  ASSERT_EQ(interleaved.size(), rec.ecg.size() / 1080);
  for (std::size_t i = 0; i < interleaved.size(); ++i) {
    EXPECT_EQ(interleaved[i].degraded, i < 2)
        << "window " << i << ": only the two windows the run touches";
  }
  for (const std::size_t k : {1u, 8u, 15u}) {
    const auto skewed = run(k);
    ASSERT_EQ(skewed.size(), interleaved.size()) << "lag " << k;
    for (std::size_t i = 0; i < skewed.size(); ++i) {
      EXPECT_EQ(skewed[i].window_index, interleaved[i].window_index);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(skewed[i].decision_value),
                std::bit_cast<std::uint64_t>(interleaved[i].decision_value))
          << "lag " << k << ", window " << i;
      EXPECT_EQ(skewed[i].degraded, interleaved[i].degraded);
      EXPECT_EQ(skewed[i].altered, interleaved[i].altered);
    }
  }
}

// --- classification arena ---------------------------------------------------

// Stations classify through their thread's arena (core::thread_scratch),
// which every stage rebuilds for each window. Windows of stations with two
// window geometries, interleaved on one thread, must therefore score
// exactly as each station does alone on a fresh thread with a fresh arena.
class ThreadArena : public WiotTest {};

TEST_F(ThreadArena, ReportsMatchFreshArena) {
  struct Feed {
    BaseStation::Config config;
    std::vector<Packet> packets;  ///< ECG and ABP alternating
  };
  std::vector<Feed> feeds;
  for (std::size_t i = 0; i < testing_->size(); ++i) {
    Feed feed{{i % 2 == 0 ? 1080u : 1440u, 180}, {}};
    SensorNode ecg(ChannelKind::kEcg, (*testing_)[i], 180);
    SensorNode abp(ChannelKind::kAbp, (*testing_)[i], 180);
    while (auto pe = ecg.poll()) {
      feed.packets.push_back(*pe);
      if (auto pa = abp.poll()) feed.packets.push_back(*pa);
    }
    feeds.push_back(std::move(feed));
  }

  std::vector<std::vector<BaseStation::WindowReport>> alone;
  for (const Feed& feed : feeds) {
    std::thread fresh([&] {
      BaseStation station(core::Detector(*model_), feed.config);
      for (const Packet& p : feed.packets) station.receive(p);
      alone.push_back(station.reports());
    });
    fresh.join();
  }

  std::vector<BaseStation> shared;
  for (const Feed& feed : feeds) {
    shared.emplace_back(core::Detector(*model_), feed.config);
  }
  std::size_t longest = 0;
  for (const Feed& feed : feeds) {
    longest = std::max(longest, feed.packets.size());
  }
  for (std::size_t k = 0; k < longest; ++k) {
    for (std::size_t s = 0; s < feeds.size(); ++s) {
      if (k < feeds[s].packets.size()) shared[s].receive(feeds[s].packets[k]);
    }
  }

  for (std::size_t s = 0; s < feeds.size(); ++s) {
    const auto& got = shared[s].reports();
    ASSERT_EQ(got.size(), alone[s].size()) << "station " << s;
    ASSERT_GE(got.size(), 10u) << "station " << s;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].window_index, alone[s][i].window_index);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].decision_value),
                std::bit_cast<std::uint64_t>(alone[s][i].decision_value))
          << "station " << s << ", window " << i;
      EXPECT_EQ(got[i].altered, alone[s][i].altered);
      EXPECT_EQ(got[i].tier, alone[s][i].tier);
    }
  }
}

// --- checkpoint format ------------------------------------------------------

BaseStation::Config checkpoint_config() {
  BaseStation::Config config;
  config.window_samples = 4;
  config.samples_per_packet = 2;
  return config;
}

// A detector-less, small-geometry station (w = 4, packets of 2) holding one
// unscored report and a residue with a merged two-packet gap-fill run and
// peaks on both channels.
BaseStation checkpoint_station() {
  BaseStation station(checkpoint_config());
  auto packet = [](ChannelKind kind, std::uint32_t seq,
                   std::vector<std::size_t> peaks) {
    Packet p;
    p.kind = kind;
    p.seq = seq;
    const double base = kind == ChannelKind::kEcg ? 0.25 : 80.0;
    p.samples = {base + seq, base + seq + 0.5};
    p.peaks = std::move(peaks);
    return p;
  };
  station.receive(packet(ChannelKind::kEcg, 0, {1}));
  station.receive(packet(ChannelKind::kAbp, 0, {0}));
  station.receive(packet(ChannelKind::kEcg, 1, {}));
  station.receive(packet(ChannelKind::kAbp, 1, {1}));
  station.receive(packet(ChannelKind::kEcg, 2, {0}));
  station.receive(packet(ChannelKind::kEcg, 5, {1}));  // 3 and 4 gap-filled
  station.receive(packet(ChannelKind::kAbp, 2, {1}));
  return station;
}

std::vector<std::uint8_t> exported(const BaseStation& station) {
  std::vector<std::uint8_t> bytes;
  io::StateWriter w(bytes);
  station.export_state(w);
  return bytes;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// Existing checkpoints must keep loading, so these bytes must not move.
constexpr const char* kCheckpointHex =
    "0400000002000000100000000000000000000000001000000700000000000000"
    "0000000000000000000000000000000000000000000000000200000000000000"
    "0000000000000000010000000000000001000000000000000000000000000000"
    "0100000000000000000000000800000000000000000006000000080000000000"
    "0000000002400000000000000640000000000000064000000000000006400000"
    "0000000006400000000000000640000000000000154000000000000017400800"
    "0000000001010101000002000000000000000000000007000000000000000300"
    "00000200000000000000008054400000000000a0544002000000000001000000"
    "0100000000000000";

TEST_F(WiotTest, CheckpointBytesArePinned) {
  const BaseStation station = checkpoint_station();
  ASSERT_EQ(station.stats().windows_classified, 1u);
  ASSERT_EQ(station.stats().gaps_filled, 2u);
  const auto bytes = exported(station);
  EXPECT_EQ(to_hex(bytes), kCheckpointHex);

  BaseStation restored(checkpoint_config());
  io::StateReader r(bytes);
  restored.import_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(exported(restored), bytes) << "import then export is lossless";
}

TEST_F(WiotTest, ImportRejectsFlagCountThatDiffersFromSamples) {
  auto bytes = exported(checkpoint_station());
  // The ECG flag count follows the 24-byte geometry, 72 bytes of stats, the
  // 4 + 18-byte report list, the ECG cursor and sample count (8 bytes) and
  // its 8 samples: offset 190. Drop one flag byte and decrement the count,
  // so the rest of the checkpoint still parses.
  constexpr std::size_t kEcgFlags = 24 + 72 + 4 + 18 + 8 + 8 * 8;
  ASSERT_EQ(bytes[kEcgFlags], 8u);
  bytes[kEcgFlags] = 7;
  bytes.erase(bytes.begin() + kEcgFlags + 4);

  BaseStation restored(checkpoint_config());
  io::StateReader r(bytes);
  EXPECT_THROW(restored.import_state(r), std::runtime_error)
      << "flags sheared against the samples must not load";
}

TEST_F(WiotTest, MalformedPacketsAreRejectedNotApplied) {
  core::Detector detector(*model_);
  BaseStation station(detector, {1080, 180});

  Packet short_pkt;
  short_pkt.kind = ChannelKind::kEcg;
  short_pkt.seq = 0;
  short_pkt.samples.assign(100, 0.0);  // wrong payload size
  station.receive(short_pkt);
  EXPECT_EQ(station.stats().malformed_rejected, 1u);

  Packet bad_peak;
  bad_peak.kind = ChannelKind::kEcg;
  bad_peak.seq = 0;
  bad_peak.samples.assign(180, 0.0);
  bad_peak.peaks = {500};  // out-of-range annotation
  station.receive(bad_peak);
  EXPECT_EQ(station.stats().malformed_rejected, 2u);

  // The stream is still intact: a valid retransmission of seq 0 lands.
  Packet good;
  good.kind = ChannelKind::kEcg;
  good.seq = 0;
  good.samples.assign(180, 0.1);
  station.receive(good);
  EXPECT_EQ(station.stats().duplicates_ignored, 0u);
  EXPECT_EQ(station.stats().gaps_filled, 0u);
}

TEST_F(WiotTest, SeqJumpGuardRejectsWildSequenceNumbers) {
  core::Detector detector(*model_);
  BaseStation::Config config{1080, 180};
  config.max_seq_jump = 16;
  BaseStation station(detector, config);

  Packet p;
  p.kind = ChannelKind::kEcg;
  p.samples.assign(180, 0.1);

  p.seq = 0;
  station.receive(p);
  p.seq = 10'000;  // a bit-flipped counter, not plausible loss
  station.receive(p);
  EXPECT_EQ(station.stats().seq_rejected, 1u);
  EXPECT_EQ(station.stats().gaps_filled, 0u)
      << "the jump must not be gap-filled";

  // A jump inside the tolerance still reads as ordinary loss.
  p.seq = 5;
  station.receive(p);
  EXPECT_EQ(station.stats().seq_rejected, 1u);
  EXPECT_GT(station.stats().gaps_filled, 0u);
}

TEST_F(WiotTest, DetectorlessStationEmitsUnscoredVerdicts) {
  BaseStation station(BaseStation::Config{1080, 180});
  EXPECT_FALSE(station.has_detector());
  SensorNode ecg(ChannelKind::kEcg, (*testing_)[0], 180);
  SensorNode abp(ChannelKind::kAbp, (*testing_)[0], 180);
  std::size_t fed = 0;
  while (fed < 12) {  // two windows' worth per channel
    auto pe = ecg.poll();
    auto pa = abp.poll();
    if (!pe && !pa) break;
    if (pe) station.receive(*pe);
    if (pa) station.receive(*pa);
    ++fed;
  }
  ASSERT_GE(station.stats().windows_classified, 1u);
  EXPECT_EQ(station.stats().unscored_windows,
            station.stats().windows_classified);
  for (const auto& report : station.reports()) {
    EXPECT_TRUE(report.unscored);
    EXPECT_FALSE(report.altered) << "no model, no verdict, no alert";
  }
  EXPECT_EQ(station.stats().alerts, 0u);
}

TEST_F(WiotTest, InstallingDetectorMidStreamScoresLaterWindows) {
  BaseStation station(BaseStation::Config{1080, 180});
  SensorNode ecg(ChannelKind::kEcg, (*testing_)[0], 180);
  SensorNode abp(ChannelKind::kAbp, (*testing_)[0], 180);
  bool installed = false;
  while (true) {
    auto pe = ecg.poll();
    auto pa = abp.poll();
    if (!pe && !pa) break;
    if (pe) station.receive(*pe);
    if (pa) station.receive(*pa);
    if (!installed && station.stats().windows_classified >= 1) {
      station.set_detector(core::Detector(*model_));
      installed = true;
    }
  }
  ASSERT_TRUE(installed);
  ASSERT_GE(station.stats().windows_classified, 2u);
  EXPECT_GT(station.stats().unscored_windows, 0u);
  EXPECT_LT(station.stats().unscored_windows,
            station.stats().windows_classified)
      << "windows after the install are scored";
  EXPECT_TRUE(station.reports().front().unscored);
  EXPECT_FALSE(station.reports().back().unscored);
  EXPECT_EQ(station.tier(), core::DetectorVersion::kOriginal);
}

TEST_F(WiotTest, SpectralCrossCheckFlagsRateMismatchedSubstitution) {
  // Pick a donor whose heart rate differs strongly from the wearer's, and
  // verify the FFT cross-check alone (no degraded exclusion) raises
  // hr_mismatch flags on substituted windows while clean streams stay quiet.
  const auto cohort = physio::synthetic_cohort(12, 808);
  // Widest heart-rate gap in the cohort: slowest heart wears the device,
  // fastest heart plays the attacker's donor.
  const physio::UserProfile* victim_profile = &cohort[0];
  const physio::UserProfile* donor_profile = &cohort[0];
  for (const auto& candidate : cohort) {
    if (candidate.rr.mean_hr_bpm < victim_profile->rr.mean_hr_bpm) {
      victim_profile = &candidate;
    }
    if (candidate.rr.mean_hr_bpm > donor_profile->rr.mean_hr_bpm) {
      donor_profile = &candidate;
    }
  }
  ASSERT_GT(donor_profile->rr.mean_hr_bpm - victim_profile->rr.mean_hr_bpm,
            15.0);
  auto victim = physio::generate_record(*victim_profile, 60.0);
  const auto donor = physio::generate_record(*donor_profile, 60.0);

  core::Detector detector(*model_);
  BaseStation::Config config{1080, 180};
  config.spectral_cross_check = true;

  // Clean run first: no mismatch flags.
  {
    BaseStation station(detector, config);
    SensorNode ecg(ChannelKind::kEcg, victim, 180);
    SensorNode abp(ChannelKind::kAbp, victim, 180);
    while (true) {
      auto pe = ecg.poll();
      auto pa = abp.poll();
      if (!pe && !pa) break;
      if (pe) station.receive(*pe);
      if (pa) station.receive(*pa);
    }
    for (const auto& r : station.reports()) EXPECT_FALSE(r.hr_mismatch);
  }

  // Substitute the whole ECG channel with the fast-heart donor.
  attack::SubstitutionAttack attack;
  std::mt19937_64 rng(1);
  attack.alter(victim.ecg, victim.r_peaks, 0, victim.ecg.size(), donor, rng);
  {
    BaseStation station(detector, config);
    SensorNode ecg(ChannelKind::kEcg, victim, 180);
    SensorNode abp(ChannelKind::kAbp, victim, 180);
    while (true) {
      auto pe = ecg.poll();
      auto pa = abp.poll();
      if (!pe && !pa) break;
      if (pe) station.receive(*pe);
      if (pa) station.receive(*pa);
    }
    std::size_t mismatches = 0;
    for (const auto& r : station.reports()) {
      if (r.hr_mismatch) ++mismatches;
    }
    EXPECT_GT(mismatches, station.reports().size() / 2)
        << "rate-mismatched substitution trips the spectral cross-check";
  }
}

// --- Sink ----------------------------------------------------------------------

TEST(Sink, AggregatesAlertsAndRuns) {
  Sink sink;
  BaseStation::WindowReport r;
  for (bool altered : {false, true, true, true, false, true}) {
    r.altered = altered;
    sink.deliver(r);
  }
  EXPECT_EQ(sink.total_windows(), 6u);
  EXPECT_EQ(sink.alerts(), 4u);
  EXPECT_EQ(sink.longest_alert_run(), 3u);
  EXPECT_NE(sink.summary(3.0).find("4 alerts"), std::string::npos);
}

// --- end-to-end scenario -----------------------------------------------------------

TEST_F(WiotTest, ScenarioDetectsAttackOverLossyNetwork) {
  attack::SubstitutionAttack attack;
  const auto attacked = attack::corrupt_windows(
      (*testing_)[0], std::span(*testing_).subspan(1), attack, 0.5, 1080, 11);

  ScenarioConfig config;
  config.ecg_channel = {0.02, 0.01, 21};
  config.abp_channel = {0.02, 0.01, 22};
  const core::Detector detector(*model_);
  const auto result = run_scenario(detector, attacked.record,
                                   attacked.window_altered, config);

  ASSERT_TRUE(result.confusion.has_value());
  EXPECT_GT(result.confusion->total(), 10u);
  EXPECT_GT(result.confusion->accuracy(), 0.8)
      << "detection survives 2% packet loss";
  EXPECT_EQ(result.sink.total_windows(),
            result.station_stats.windows_classified);
}

TEST_F(WiotTest, CleanScenarioStaysQuiet) {
  ScenarioConfig config;  // perfect links
  const core::Detector detector(*model_);
  const auto result =
      run_scenario(detector, (*testing_)[0], {}, config);
  EXPECT_FALSE(result.confusion.has_value());
  const double alert_rate =
      static_cast<double>(result.sink.alerts()) /
      static_cast<double>(std::max<std::size_t>(1, result.sink.total_windows()));
  EXPECT_LT(alert_rate, 0.2);
}

}  // namespace
}  // namespace sift::wiot
