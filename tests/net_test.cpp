// Network ingest plane tests: wire grammar, event-loop lifecycle,
// malformed-input hardening, backpressure, graceful drain, and the
// subsystem's central contract — a closed loop over a socket produces
// verdict streams bit-identical to in-process ingest.
//
// Most tests drive the server with poll_once() on the test thread: the
// epoll loop then runs under the test's control (and under AllocGuard's
// thread-local allocation counter); only the closed-loop tests that need a
// blocking client on the same thread start the server's own loop thread.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc_guard.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/engine.hpp"
#include "fleet/faults.hpp"
#include "fleet/replay.hpp"
#include "io/framed.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace sift::net {
namespace {

using fleet::FleetConfig;
using fleet::FleetEngine;
using fleet::ReplayConfig;
using fleet::ReplayFixture;
using fleet::durable::Journal;
using fleet::durable::VerdictRecord;

constexpr std::size_t kUsers = 128;
constexpr std::size_t kConnections = 32;

/// One expensive shared fixture: 128 sessions (6 s each, ~24 packets) over
/// 2 trained physiologies — the closed-loop acceptance scale.
const ReplayFixture& shared_fixture() {
  static const ReplayFixture* fixture = [] {
    ReplayConfig config;
    config.sessions = kUsers;
    config.seconds = 6.0;
    config.distinct_users = 2;
    config.train_seconds = 60.0;
    return new ReplayFixture(ReplayFixture::build(config));
  }();
  return *fixture;
}

std::string unique_unix_address(const std::string& tag) {
  static int counter = 0;
  return "unix:" + (std::filesystem::temp_directory_path() /
                    ("sift_net_" + tag + "_" + std::to_string(::getpid()) +
                     "_" + std::to_string(counter++) + ".sock"))
                       .string();
}

/// Self-cleaning checkpoint/journal directory.
struct ScopedDir {
  std::string path;
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("sift_net_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

FleetConfig base_config() {
  FleetConfig config;
  config.workers = 2;
  config.shards = 4;
  config.queue_capacity = 256;
  config.model_cache_capacity = 2;
  return config;
}

/// Engine + server in the teardown order the production wiring uses (the
/// server stops before the engine drains).
struct Harness {
  std::optional<FleetEngine> engine;
  std::optional<NetServer> server;

  explicit Harness(FleetConfig config = base_config(),
                   NetServerConfig net_config = {},
                   fleet::durable::Durability* durability = nullptr) {
    config.durability = durability;
    if (net_config.listen == NetServerConfig{}.listen) {
      net_config.listen = unique_unix_address("srv");
    }
    engine.emplace(shared_fixture().provider(), config);
    server.emplace(*engine, net_config);
  }

  const std::string& address() const { return server->address(); }
  std::uint64_t counter(const std::string& name) {
    return engine->metrics().counter(name).value();
  }

  template <typename Pred>
  bool poll_until(Pred&& pred,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(10000)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      server->poll_once(std::chrono::milliseconds(5));
    }
    return true;
  }
};

std::map<int, std::vector<VerdictRecord>> records_by_user(
    const std::vector<VerdictRecord>& records) {
  std::map<int, std::vector<VerdictRecord>> out;
  for (const VerdictRecord& r : records) out[r.user_id].push_back(r);
  return out;
}

void expect_record_eq(const VerdictRecord& a, const VerdictRecord& b,
                      int user, std::size_t i) {
  EXPECT_EQ(a.seq, b.seq) << "user " << user << " record " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.decision_value),
            std::bit_cast<std::uint64_t>(b.decision_value))
      << "user " << user << " record " << i;
  EXPECT_EQ(a.tier, b.tier) << "user " << user << " record " << i;
  EXPECT_EQ(a.flags, b.flags) << "user " << user << " record " << i;
}

// ---------------------------------------------------------------------------
// Wire grammar

TEST(WireTest, PacketRoundTripsThroughFrameAndCodec) {
  const wiot::Packet& original = shared_fixture().session_packets(0)[0];
  wire::Encoder encoder;
  std::vector<std::uint8_t> bytes;
  encoder.packet(bytes, 42, original);

  io::FrameReader reader(bytes);
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(wire::message_type(*payload), wire::MsgType::kPacket);

  wiot::Packet decoded;
  EXPECT_EQ(wire::decode_packet(*payload, decoded), 42);
  EXPECT_EQ(decoded.kind, original.kind);
  EXPECT_EQ(decoded.seq, original.seq);
  EXPECT_EQ(decoded.sample_rate_hz, original.sample_rate_hz);
  EXPECT_EQ(decoded.samples, original.samples);
  EXPECT_EQ(decoded.peaks, original.peaks);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.torn());
}

TEST(WireTest, HelloAndStatsRoundTrip) {
  wire::Encoder encoder;
  std::vector<std::uint8_t> bytes;
  encoder.hello(bytes);
  wire::Stats stats;
  stats.frames_in = 7;
  stats.packets_accepted = 5;
  stats.queue_depth = 3;
  stats.alerts = 1;
  encoder.stats_reply(bytes, stats);

  io::FrameReader reader(bytes);
  const auto hello = reader.next();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(wire::decode_hello(*hello).version, wire::kProtocolVersion);
  EXPECT_EQ(wire::decode_hello(*hello).flags, 0u);
  const auto reply = reader.next();
  ASSERT_TRUE(reply.has_value());
  const wire::Stats decoded = wire::decode_stats_reply(*reply);
  EXPECT_EQ(decoded.frames_in, 7u);
  EXPECT_EQ(decoded.packets_accepted, 5u);
  EXPECT_EQ(decoded.queue_depth, 3u);
  EXPECT_EQ(decoded.alerts, 1u);
}

TEST(WireTest, MalformedPayloadsThrow) {
  EXPECT_THROW(wire::message_type({}), wire::Error);
  const std::vector<std::uint8_t> unknown{99};
  EXPECT_THROW(wire::message_type(unknown), wire::Error);

  // Truncated packet body.
  const std::vector<std::uint8_t> short_packet{
      static_cast<std::uint8_t>(wire::MsgType::kPacket), 1, 2};
  wiot::Packet scratch;
  EXPECT_THROW(wire::decode_packet(short_packet, scratch), wire::Error);

  // Oversized sample count must throw before any allocation happens.
  std::vector<std::uint8_t> hostile;
  io::StateWriter w(hostile);
  w.u8(static_cast<std::uint8_t>(wire::MsgType::kPacket));
  w.i32(1);
  w.u8(0);
  w.u32(0);
  w.f64(360.0);
  w.u32(0x7fffffff);  // sample count
  std::uint64_t bound_throw_allocs = 0;
  {
    testing::AllocGuard guard;
    EXPECT_THROW(wire::decode_packet(hostile, scratch), wire::Error);
    bound_throw_allocs = guard.count();
  }

  // An in-bound count on a short body (22 bytes claiming 8192 samples) is
  // checked against the payload length before the sample buffer is sized:
  // the decode allocates nothing beyond the thrown error's own message —
  // exactly what the out-of-bound throw above costs — and the buffer keeps
  // its capacity.
  std::vector<std::uint8_t> short_body;
  io::StateWriter ws(short_body);
  ws.u8(static_cast<std::uint8_t>(wire::MsgType::kPacket));
  ws.i32(1);
  ws.u8(0);
  ws.u32(0);
  ws.f64(360.0);
  ws.u32(static_cast<std::uint32_t>(wire::kMaxSamplesPerPacket));
  ASSERT_EQ(short_body.size(), 22u);
  const std::size_t samples_capacity = scratch.samples.capacity();
  {
    testing::AllocGuard guard;
    EXPECT_THROW(wire::decode_packet(short_body, scratch), wire::Error);
    EXPECT_EQ(guard.count(), bound_throw_allocs);
  }
  EXPECT_EQ(scratch.samples.capacity(), samples_capacity);

  // The same holds for the peak count once the samples are intact.
  std::vector<std::uint8_t> short_peaks;
  io::StateWriter wp(short_peaks);
  wp.u8(static_cast<std::uint8_t>(wire::MsgType::kPacket));
  wp.i32(1);
  wp.u8(0);
  wp.u32(0);
  wp.f64(360.0);
  wp.u32(0);  // no samples
  wp.u32(static_cast<std::uint32_t>(wire::kMaxPeaksPerPacket));
  const std::size_t peaks_capacity = scratch.peaks.capacity();
  {
    testing::AllocGuard guard;
    EXPECT_THROW(wire::decode_packet(short_peaks, scratch), wire::Error);
    EXPECT_EQ(guard.count(), bound_throw_allocs);
  }
  EXPECT_EQ(scratch.peaks.capacity(), peaks_capacity);

  // Trailing bytes after a valid hello (one extra byte is the optional
  // flags field, so the overrun needs two).
  std::vector<std::uint8_t> trailing;
  io::StateWriter w2(trailing);
  w2.u8(static_cast<std::uint8_t>(wire::MsgType::kHello));
  w2.u32(wire::kProtocolVersion);
  w2.u8(0xee);
  w2.u8(0xdd);
  EXPECT_THROW(wire::decode_hello(trailing), wire::Error);
}

TEST(WireTest, HelloFlagsRoundTripAndBareFormStaysCompatible) {
  // Flagged hello: the reconnect bit survives the round trip.
  wire::Encoder encoder;
  std::vector<std::uint8_t> flagged;
  encoder.hello(flagged, wire::kHelloFlagReconnect);
  io::FrameReader reader(flagged);
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  const wire::Hello hello = wire::decode_hello(*payload);
  EXPECT_EQ(hello.version, wire::kProtocolVersion);
  EXPECT_EQ(hello.flags, wire::kHelloFlagReconnect);

  // Zero flags encode as the original 5-byte body, byte for byte — an old
  // server never sees a byte it does not expect from a new client.
  std::vector<std::uint8_t> bare, zero_flagged;
  encoder.hello(bare);
  encoder.hello(zero_flagged, 0);
  EXPECT_EQ(bare, zero_flagged);
  io::FrameReader bare_reader(bare);
  const auto bare_payload = bare_reader.next();
  ASSERT_TRUE(bare_payload.has_value());
  EXPECT_EQ(bare_payload->size(), 5u);
  EXPECT_EQ(wire::decode_hello(*bare_payload).flags, 0u);
}

TEST(WireTest, CursorFramesRoundTrip) {
  wire::Encoder encoder;
  std::vector<std::uint8_t> bytes;
  encoder.cursor_request(bytes, 42);
  wire::Cursors cursors;
  cursors.user_id = 42;
  cursors.ecg = 17;
  cursors.abp = 9;
  encoder.cursor_reply(bytes, cursors);

  io::FrameReader reader(bytes);
  const auto request = reader.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(wire::message_type(*request), wire::MsgType::kCursorRequest);
  EXPECT_EQ(wire::decode_cursor_request(*request), 42);

  const auto reply = reader.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(wire::message_type(*reply), wire::MsgType::kCursorReply);
  const wire::Cursors decoded = wire::decode_cursor_reply(*reply);
  EXPECT_EQ(decoded.user_id, 42);
  EXPECT_EQ(decoded.ecg, 17u);
  EXPECT_EQ(decoded.abp, 9u);

  // Truncated cursor bodies must throw, not misparse.
  std::vector<std::uint8_t> torn(reply->begin(), reply->end() - 2);
  EXPECT_THROW(wire::decode_cursor_reply(torn), wire::Error);
}

TEST(WireTest, AddressGrammar) {
  const ParsedAddress unix_addr = parse_address("unix:/tmp/x.sock");
  EXPECT_TRUE(unix_addr.is_unix);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");
  EXPECT_EQ(to_string(unix_addr), "unix:/tmp/x.sock");

  const ParsedAddress tcp_addr = parse_address("tcp:127.0.0.1:8080");
  EXPECT_FALSE(tcp_addr.is_unix);
  EXPECT_EQ(tcp_addr.host, "127.0.0.1");
  EXPECT_EQ(tcp_addr.port, 8080);

  EXPECT_THROW(parse_address("udp:127.0.0.1:1"), std::invalid_argument);
  EXPECT_THROW(parse_address("tcp:localhost:1"), std::invalid_argument);
  EXPECT_THROW(parse_address("tcp:127.0.0.1"), std::invalid_argument);
  EXPECT_THROW(parse_address("tcp:127.0.0.1:99999"), std::invalid_argument);
  EXPECT_THROW(parse_address("unix:"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FrameDecoder incremental grammar (the io/framed promotion)

TEST(FrameDecoderTest, ByteAtATimeMatchesWholeBufferReader) {
  wire::Encoder encoder;
  std::vector<std::uint8_t> bytes;
  encoder.hello(bytes);
  for (int i = 0; i < 5; ++i) {
    encoder.packet(bytes, i, shared_fixture().session_packets(0)[0]);
  }

  std::vector<std::vector<std::uint8_t>> whole;
  io::FrameReader reader(bytes);
  while (const auto p = reader.next()) {
    whole.emplace_back(p->begin(), p->end());
  }
  ASSERT_EQ(whole.size(), 6u);
  EXPECT_FALSE(reader.torn());

  io::FrameDecoder decoder;
  std::vector<std::vector<std::uint8_t>> incremental;
  for (const std::uint8_t b : bytes) {
    decoder.feed({&b, 1});
    while (const auto p = decoder.next()) {
      incremental.emplace_back(p->begin(), p->end());
    }
  }
  EXPECT_FALSE(decoder.corrupt());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  EXPECT_EQ(incremental, whole);
}

TEST(FrameDecoderTest, ResetClearsPoisonAndReusesCapacity) {
  std::vector<std::uint8_t> frame;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  io::append_frame(frame, payload);

  io::FrameDecoder decoder;
  std::vector<std::uint8_t> corrupted = frame;
  corrupted[frame.size() - 1] ^= 0x40;
  decoder.feed(corrupted);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());

  decoder.reset();
  EXPECT_FALSE(decoder.corrupt());
  decoder.feed(frame);
  const auto p = decoder.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(p->begin(), p->end()), payload);
}

/// Copies of every payload @p decoder yields right now.
std::vector<std::vector<std::uint8_t>> drain_frames(io::FrameDecoder& decoder) {
  std::vector<std::vector<std::uint8_t>> out;
  while (const auto p = decoder.next()) out.emplace_back(p->begin(), p->end());
  return out;
}

TEST(FrameDecoderTest, PrepareCommitAtEverySplitPointMatchesFeed) {
  wire::Encoder encoder;
  std::vector<std::uint8_t> bytes;
  encoder.hello(bytes);
  for (int i = 0; i < 3; ++i) {
    encoder.packet(bytes, i, shared_fixture().session_packets(0)[i]);
  }
  io::FrameDecoder fed;
  fed.feed(bytes);
  const auto whole = drain_frames(fed);
  ASSERT_EQ(whole.size(), 4u);

  // Receive-style: each prepare asks for more room than the bytes that
  // then arrive, as a recv() into a large chunk does.
  io::FrameDecoder decoder;
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    decoder.reset();
    std::vector<std::vector<std::uint8_t>> got;
    std::size_t off = 0;
    for (const std::size_t n : {split, bytes.size() - split}) {
      const std::span<std::uint8_t> room = decoder.prepare(n + 64);
      ASSERT_EQ(room.size(), n + 64);
      std::copy_n(bytes.data() + off, n, room.data());
      decoder.commit(n);
      off += n;
      for (auto& frame : drain_frames(decoder)) got.push_back(std::move(frame));
    }
    ASSERT_EQ(got, whole) << "split " << split;
    EXPECT_EQ(decoder.pending_bytes(), 0u);
    EXPECT_EQ(decoder.consumed_bytes(), bytes.size());
  }
}

TEST(FrameDecoderTest, WarmDecoderAllocatesNothing) {
  wire::Encoder encoder;
  std::vector<std::uint8_t> bytes;
  for (const auto& packet : shared_fixture().session_packets(0)) {
    encoder.packet(bytes, 0, packet);
  }
  constexpr std::size_t kChunk = 1000;  // frames straddle every chunk
  io::FrameDecoder decoder;
  const auto pass = [&] {
    std::size_t frames = 0;
    for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, bytes.size() - off);
      const std::span<std::uint8_t> room = decoder.prepare(kChunk);
      std::copy_n(bytes.data() + off, n, room.data());
      decoder.commit(n);
      while (decoder.next()) ++frames;
    }
    return frames;
  };
  const auto whole = [&] {
    decoder.reset();
    decoder.feed(bytes);
    std::size_t frames = 0;
    while (decoder.next()) ++frames;
    return frames;
  };
  const std::size_t frames = pass();
  ASSERT_EQ(frames, shared_fixture().session_packets(0).size());
  ASSERT_EQ(whole(), frames);

  decoder.reset();
  testing::AllocGuard guard;
  EXPECT_EQ(pass(), frames);
  EXPECT_EQ(whole(), frames);
  EXPECT_EQ(guard.count(), 0u);
}

// ---------------------------------------------------------------------------
// Event-loop lifecycle

TEST(NetServerTest, FrameSplitAcrossAShortReadDecodesAfterTheLaterSend) {
  Harness h;
  Client client(h.address(), /*greet=*/false);
  wire::Encoder encoder;
  std::vector<std::uint8_t> hello;
  encoder.hello(hello);
  std::vector<std::uint8_t> packet;
  encoder.packet(packet, 0, shared_fixture().session_packets(0)[0]);
  const std::size_t half = packet.size() / 2;

  // The hello and half a packet arrive in one short read; the server
  // dispatches the hello and waits with the half frame buffered.
  client.send_raw(hello);
  client.send_raw({packet.data(), half});
  ASSERT_TRUE(h.poll_until([&] {
    return h.counter("net.bytes_in") == hello.size() + half;
  }));
  EXPECT_EQ(h.counter("net.frames_in"), 1u);
  EXPECT_EQ(h.counter("net.packets_in"), 0u);

  client.send_raw({packet.data() + half, packet.size() - half});
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("net.packets_streamed") == 1u; }));
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(h.server->open_connections(), 1u);
}

TEST(NetServerTest, EofAfterAShortReadClosesAndCounts) {
  Harness h;
  wire::Encoder encoder;
  std::vector<std::uint8_t> stream;
  encoder.hello(stream);
  encoder.packet(stream, 0, shared_fixture().session_packets(0)[0]);
  encoder.packet(stream, 0, shared_fixture().session_packets(0)[1]);
  stream.resize(stream.size() - 5);  // the second packet is torn

  // Bytes and FIN are both queued before the server reads: the first
  // recv is short and ends the round, the EOF is seen on the next wake.
  {
    Client client(h.address(), /*greet=*/false);
    client.send_raw(stream);
    client.close();
  }
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("net.connections_closed") == 1u; }));
  EXPECT_EQ(h.counter("net.bytes_in"), stream.size());
  EXPECT_EQ(h.counter("net.packets_streamed"), 1u);
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(h.server->open_connections(), 0u);
}

TEST(NetServerTest, ArbitraryChunkBoundariesDecodeEverything) {
  Harness h;
  Client client(h.address(), /*greet=*/false);

  wire::Encoder encoder;
  std::vector<std::uint8_t> stream;
  encoder.hello(stream);
  const auto& packets = shared_fixture().session_packets(0);
  for (const auto& packet : packets) encoder.packet(stream, 0, packet);

  // Rotate through awkward chunk sizes (1..13 bytes) so frames split at
  // every alignment the kernel could possibly produce.
  const std::size_t sizes[] = {1, 2, 3, 5, 7, 11, 13};
  std::size_t off = 0, i = 0;
  while (off < stream.size()) {
    const std::size_t n = std::min(sizes[i++ % 7], stream.size() - off);
    client.send_raw({stream.data() + off, n});
    off += n;
    if (i % 64 == 0) h.server->poll_once(std::chrono::milliseconds(0));
  }
  ASSERT_TRUE(h.poll_until([&] {
    return h.counter("net.packets_streamed") == packets.size();
  }));
  EXPECT_EQ(h.counter("net.packets_in"), packets.size());
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(h.counter("fleet.packets_rejected"), 0u);
}

TEST(NetServerTest, CorruptedBytesCloseTheConnectionAndNothingLeaksIn) {
  Harness h;
  wire::Encoder encoder;
  std::vector<std::uint8_t> stream;
  encoder.hello(stream);
  encoder.packet(stream, 0, shared_fixture().session_packets(0)[0]);
  encoder.packet(stream, 0, shared_fixture().session_packets(0)[1]);

  // Flip one byte at a sweep of positions (header, CRC, payload — every
  // region gets hit). CRC32 catches every single-byte corruption, so each
  // attempt must end in exactly one protocol error and a closed socket;
  // no corrupted packet may reach the engine's validation gate, let alone
  // a session.
  std::uint64_t attempts = 0;
  for (std::size_t pos = 0; pos < stream.size(); pos += 53) {
    std::vector<std::uint8_t> corrupted = stream;
    corrupted[pos] ^= 0x10;
    Client client(h.address(), /*greet=*/false);
    client.send_raw(corrupted);
    ++attempts;
    ASSERT_TRUE(h.poll_until([&] {
      return h.counter("net.protocol_errors") == attempts &&
             h.counter("net.connections_closed") == attempts;
    })) << "corruption at byte " << pos;
  }
  EXPECT_EQ(h.counter("fleet.packets_rejected"), 0u);
  EXPECT_EQ(h.server->open_connections(), 0u);

  // Duplicating a complete frame is NOT a wire error — framing stays
  // intact; the duplicate rides to the base station's dedupe. (Flips that
  // landed past an intact frame let that frame stream, so count deltas.)
  const std::uint64_t streamed_before = h.counter("net.packets_streamed");
  std::vector<std::uint8_t> duplicated;
  encoder.hello(duplicated);
  encoder.packet(duplicated, 0, shared_fixture().session_packets(0)[0]);
  encoder.packet(duplicated, 0, shared_fixture().session_packets(0)[0]);
  Client client(h.address(), /*greet=*/false);
  client.send_raw(duplicated);
  ASSERT_TRUE(h.poll_until([&] {
    return h.counter("net.packets_streamed") == streamed_before + 2u;
  }));
  EXPECT_EQ(h.counter("net.protocol_errors"), attempts);
}

TEST(NetServerTest, NanPacketIsRejectedAtIngestNotClassified) {
  Harness h;
  Client client(h.address());
  wiot::Packet poisoned = shared_fixture().session_packets(0)[0];
  poisoned.samples[3] = std::numeric_limits<double>::quiet_NaN();
  client.send_packet(0, poisoned);
  client.flush();
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("fleet.packets_rejected") == 1u; }));
  // A well-framed-but-invalid packet is the sender's data problem, not a
  // wire problem: the connection stays up and nothing was classified.
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(h.counter("net.connections_closed"), 0u);
  EXPECT_EQ(h.counter("net.packets_streamed"), 0u);
  h.engine->drain();
  EXPECT_EQ(h.engine->windows_classified(), 0u);
}

TEST(NetServerTest, PacketBeforeHelloIsAProtocolError) {
  Harness h;
  Client client(h.address(), /*greet=*/false);
  wire::Encoder encoder;
  std::vector<std::uint8_t> stream;
  encoder.packet(stream, 0, shared_fixture().session_packets(0)[0]);
  client.send_raw(stream);
  ASSERT_TRUE(h.poll_until([&] {
    return h.counter("net.protocol_errors") == 1u &&
           h.counter("net.connections_closed") == 1u;
  }));
  EXPECT_EQ(h.counter("net.packets_in"), 0u);
}

TEST(NetServerTest, MidStreamHelloAndReplayedFrameKeepConnectionAlive) {
  // A reconnecting (or cloned) sensor re-sends its HELLO mid-stream and
  // then replays a captured early frame verbatim. Neither is a wire error:
  // the re-handshake is idempotent and the replayed packet rides to the
  // fleet's anti-replay gate, which drops it with attribution — the
  // connection itself must stay up and keep streaming.
  FleetConfig config = base_config();
  config.anti_replay.replay_window = 4;  // fixture streams are short
  Harness h(config);
  Client client(h.address());
  const auto& packets = shared_fixture().session_packets(0);
  for (const auto& p : packets) client.send_packet(0, p);
  client.flush();
  ASSERT_TRUE(h.poll_until([&] {
    return h.counter("net.packets_streamed") == packets.size();
  }));

  wire::Encoder encoder;
  std::vector<std::uint8_t> frames;
  encoder.hello(frames);                 // stale re-handshake
  encoder.packet(frames, 0, packets[0]);  // replayed capture
  client.send_raw(frames);
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("fleet.replay_dropped") == 1u; }));
  EXPECT_EQ(h.counter("fleet.seq_anomalies"), 1u);
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(h.counter("net.connections_closed"), 0u);
  EXPECT_EQ(h.server->open_connections(), 1u);

  // Still alive: fresh traffic on the same connection keeps streaming.
  const std::uint64_t streamed = h.counter("net.packets_streamed");
  for (const auto& p : shared_fixture().session_packets(1)) {
    client.send_packet(1, p);
  }
  client.flush();
  ASSERT_TRUE(h.poll_until([&] {
    return h.counter("net.packets_streamed") ==
           streamed + shared_fixture().session_packets(1).size();
  }));
  EXPECT_EQ(h.counter("net.connections_closed"), 0u);
}

TEST(NetServerTest, IdleConnectionsAreReaped) {
  NetServerConfig net_config;
  net_config.listen = unique_unix_address("idle");
  net_config.idle_timeout = std::chrono::milliseconds(50);
  Harness h(base_config(), net_config);
  Client client(h.address());
  client.flush();
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("net.connections_accepted") == 1u; }));
  ASSERT_TRUE(h.poll_until([&] {
    return h.counter("net.idle_timeouts") == 1u &&
           h.counter("net.connections_closed") == 1u;
  }));
  EXPECT_EQ(h.server->open_connections(), 0u);
}

TEST(NetServerTest, BackpressureStalledPeerIsReapedOnItsOwnDeadline) {
  // A connection parked on a would-block packet is *stalled*, not idle: it
  // must survive the idle deadline but not park a slot forever when the
  // shard never frees. Overload-stall every shard so the rings stay full,
  // and give stalls a short deadline of their own.
  fleet::FaultConfig fault_config;
  fault_config.overload_shards = {0, 1, 2, 3};
  fault_config.overload_stall = std::chrono::milliseconds(150);
  fleet::FaultInjector injector(fault_config);
  FleetConfig config = base_config();
  config.workers = 1;
  config.queue_capacity = 8;
  config.injector = &injector;
  NetServerConfig net_config;
  net_config.listen = unique_unix_address("stall");
  net_config.stall_timeout = std::chrono::milliseconds(60);
  Harness h(config, net_config);

  Client client(h.address());
  const auto& packets = shared_fixture().session_packets(0);
  for (const auto& p : packets) client.send_packet(0, p);
  client.flush();
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("net.stall_reaps") == 1u; }));
  EXPECT_GE(h.counter("net.packets_abandoned"), 1u);
  EXPECT_EQ(h.counter("net.idle_timeouts"), 0u);
  EXPECT_EQ(h.counter("net.connections_closed"), 1u);
  EXPECT_EQ(h.server->open_connections(), 0u);
  h.engine->drain();  // the queued remainder still classifies cleanly
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
}

TEST(NetServerTest, WriteStalledPeerIsReaped) {
  // The other stall shape: a peer that never drains its replies. A
  // persistent injected EAGAIN on the server's sends pins want_write with
  // zero progress, so the stall deadline must reap the connection.
  NetFaultConfig fault_config;
  fault_config.write_eagain_probability = 1.0;
  FaultyTransport shim(fault_config);
  NetServerConfig net_config;
  net_config.listen = unique_unix_address("wstall");
  net_config.stall_timeout = std::chrono::milliseconds(60);
  net_config.faults = &shim;
  Harness h(base_config(), net_config);

  Client client(h.address());
  wire::Encoder encoder;
  std::vector<std::uint8_t> request;
  encoder.stats_request(request);
  client.send_raw(request);  // flushes the buffered hello first
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("net.stall_reaps") == 1u; }));
  EXPECT_EQ(h.counter("net.connections_closed"), 1u);
  EXPECT_EQ(h.server->open_connections(), 0u);
  EXPECT_GE(shim.counts().write_eagain, 1u);
  EXPECT_GE(h.counter("net.faults_injected"), 1u);
}

TEST(NetServerTest, RateLimitedFloodWalksItselfIntoQuarantine) {
  // Over-rate packets are shed after decode (the stream stays framed, the
  // connection stays up) and each one charges a suspicion step, so a
  // flooding wearer trips the same quarantine an attack would.
  NetServerConfig net_config;
  net_config.listen = unique_unix_address("rate");
  net_config.rate_limit_pps = 1.0;  // the bucket holds one packet
  Harness h(base_config(), net_config);

  Client client(h.address());
  const auto& packets = shared_fixture().session_packets(0);
  for (const auto& p : packets) client.send_packet(0, p);
  client.flush();
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("fleet.suspect_sessions") == 1u; }));
  EXPECT_GE(h.counter("net.rate_limited"), 4u);
  EXPECT_GE(h.counter("net.packets_streamed"), 1u);
  EXPECT_LT(h.counter("net.packets_streamed"),
            static_cast<std::uint64_t>(packets.size()));
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(h.counter("net.connections_closed"), 0u);
  EXPECT_EQ(h.server->open_connections(), 1u);
  h.engine->drain();
}

TEST(NetServerTest, AcceptBurstYieldsToEstablishedConnections) {
  NetServerConfig net_config;
  net_config.listen = unique_unix_address("burst");
  net_config.accept_burst = 1;
  Harness h(base_config(), net_config);

  // A connect flood deeper than the burst: every connection must still be
  // accepted (the listener is level-triggered), just not all in one wakeup.
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(h.address()));
    clients.back()->flush();
  }
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("net.connections_accepted") == 4u; }));
  EXPECT_GE(h.counter("net.accept_deferrals"), 1u);
  EXPECT_EQ(h.counter("net.connections_refused"), 0u);
  EXPECT_EQ(h.server->open_connections(), 4u);
}

TEST(NetServerTest, UnixAddressIsRebindableAfterStop) {
  const std::string address = unique_unix_address("rebind");
  {
    NetServerConfig net_config;
    net_config.listen = address;
    Harness h(base_config(), net_config);
    Client client(h.address());
    client.flush();
    ASSERT_TRUE(h.poll_until(
        [&] { return h.counter("net.connections_accepted") == 1u; }));
    h.server->stop();
  }
  // Same path binds again immediately — stop() unlinked it; and even a
  // stale file left by a crash is swept by listen_on.
  NetServerConfig net_config;
  net_config.listen = address;
  Harness h(base_config(), net_config);
  Client client(h.address());
  client.flush();
  ASSERT_TRUE(h.poll_until(
      [&] { return h.counter("net.connections_accepted") == 1u; }));
}

TEST(NetServerTest, GracefulStopFlushesEveryDecodedFrame) {
  ScopedDir net_dir("drain_net");
  ScopedDir golden_dir("drain_golden");
  fleet::durable::DurabilityConfig durable_config;
  durable_config.journal.fsync_on_flush = false;

  // Golden: sessions 0 and 1 in-process, journaled.
  std::map<int, std::vector<VerdictRecord>> golden;
  {
    fleet::durable::Durability durability(golden_dir.path, durable_config);
    FleetConfig config = base_config();
    config.durability = &durability;
    FleetEngine engine(shared_fixture().provider(), config);
    for (int user = 0; user < 2; ++user) {
      for (const auto& packet : shared_fixture().session_packets(
               static_cast<std::size_t>(user))) {
        engine.ingest(user, packet);
      }
    }
    engine.drain();
    durability.flush();
    golden = records_by_user(
        fleet::durable::Durability::scan_merged(golden_dir.path));
  }

  // Net run: send both sessions, poll only until *some* frames landed,
  // then stop mid-stream. Everything the server decoded must come out the
  // other side (streamed or rejected — never silently dropped), and the
  // journal must be a per-user PREFIX of the golden verdict stream: the
  // WAL invariant survives an early shutdown.
  fleet::durable::Durability durability(net_dir.path, durable_config);
  Harness h(base_config(), {}, &durability);
  Client client(h.address());
  std::uint64_t sent = 0;
  for (int user = 0; user < 2; ++user) {
    for (const auto& packet :
         shared_fixture().session_packets(static_cast<std::size_t>(user))) {
      client.send_packet(user, packet);
      ++sent;
    }
  }
  client.flush();
  ASSERT_TRUE(
      h.poll_until([&] { return h.counter("net.packets_in") >= 1u; }));
  h.server->stop();
  h.engine->drain();
  durability.flush();

  EXPECT_EQ(h.counter("net.packets_abandoned"), 0u);
  EXPECT_EQ(h.counter("net.packets_streamed") +
                h.counter("fleet.packets_rejected"),
            h.counter("net.packets_in"));
  EXPECT_LE(h.counter("net.packets_in"), sent);

  const auto net_records =
      records_by_user(fleet::durable::Durability::scan_merged(net_dir.path));
  for (const auto& [user, records] : net_records) {
    ASSERT_TRUE(golden.count(user)) << "unexpected user " << user;
    const auto& golden_records = golden[user];
    ASSERT_LE(records.size(), golden_records.size()) << "user " << user;
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_record_eq(records[i], golden_records[i], user, i);
    }
  }
}

/// Every thread name of this process, from /proc/self/task/*/comm.
std::multiset<std::string> thread_names() {
  std::multiset<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.insert(name);
  }
  return names;
}

// The gateway's threads are named, so `top -H` and /proc/<pid>/task/*/comm
// show which one spends the CPU: the event loop, each worker and each
// journal segment's flusher.
TEST(NetServerTest, GatewayThreadsAreNamed) {
  ScopedDir dir("names");
  fleet::durable::DurabilityConfig durable_config;
  durable_config.journal.fsync_on_flush = false;
  fleet::durable::Durability durability(dir.path, durable_config);
  Harness h(base_config(), {}, &durability);
  h.server->start();
  const std::size_t workers = h.engine->workers();
  ASSERT_GE(workers, 1u);
  ASSERT_EQ(durability.segment_count(), workers);

  // Each thread names itself once it runs, so wait for the last of them.
  const auto all_named = [&](const std::multiset<std::string>& names) {
    if (names.count("sift-net") != 1) return false;
    if (names.count("sift-journal") != workers) return false;
    for (std::size_t w = 0; w < workers; ++w) {
      if (names.count("sift-worker-" + std::to_string(w)) != 1) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::multiset<std::string> names = thread_names();
  while (!all_named(names) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    names = thread_names();
  }
  std::string seen;
  for (const auto& name : names) seen += name + " ";
  EXPECT_TRUE(all_named(names)) << "threads: " << seen;
  h.server->stop();
}

TEST(NetServerTest, SteadyStateIngestPathIsAllocationFree) {
  // The wire-fault shim stays compiled into both ends of the path; with
  // every probability at zero it must be a pure passthrough — no
  // injections, and no allocations charged to the loop below.
  FaultyTransport shim{NetFaultConfig{}};
  ASSERT_FALSE(shim.armed());
  NetServerConfig net_config;
  net_config.listen = unique_unix_address("alloc");
  net_config.faults = &shim;
  Harness h(base_config(), net_config);
  Client client(h.address());
  client.set_faults(&shim, /*conn_id=*/999);

  // Warm-up: every capacity on the loop path must exist before the guard —
  // decoder reserve, reply buffers, and the packet buffers the rings carry
  // back. try_ingest returns the buffers a worker left in the ring slot it
  // pushes into, so every slot of every worker's ring must have made round
  // trips with full-sized packets first. Peak vectors only grow, and ~38% of
  // this cohort's packets carry no peak, so a buffer that has only carried
  // peak-free packets still allocates on its first beat: three passes over
  // every other user (~9000 packets, ~16 trips per buffer) make that
  // vanishingly unlikely. The repeats sit inside the replay window, so the
  // station dedupe sheds them. One session at a time: the client blocks
  // once the socket buffer fills, and only this thread polls the server.
  const std::size_t measured_user = 2;
  const auto& measured_stream =
      shared_fixture().session_packets(measured_user);
  std::uint64_t warm_packets = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t user = 0; user < kUsers; ++user) {
      if (user == measured_user) continue;
      const auto& stream = shared_fixture().session_packets(user);
      for (const auto& packet : stream) {
        client.send_packet(static_cast<std::int32_t>(user), packet);
      }
      client.flush();
      warm_packets += stream.size();
      ASSERT_TRUE(h.poll_until([&] {
        return h.counter("net.packets_streamed") == warm_packets &&
               h.engine->queue_depth() == 0;
      }));
    }
  }

  // Resolve counters up front: looking a name up inside the guarded
  // region would charge the registry's string handling to the server.
  const auto& accepted =
      h.engine->metrics().counter("net.connections_accepted");
  const auto& streamed = h.engine->metrics().counter("net.packets_streamed");

  // Accept path: a second connection arriving on a recycled slot must not
  // allocate on the loop thread.
  {
    Client churn(h.address());
    churn.flush();
    ASSERT_TRUE(h.poll_until([&] { return accepted.value() == 2u; }));
    churn.close();
    ASSERT_TRUE(h.poll_until(
        [&] { return h.counter("net.connections_closed") == 1u; }));
  }
  Client reconnect(h.address(), /*greet=*/false);
  {
    testing::AllocGuard guard;
    ASSERT_TRUE(h.poll_until([&] { return accepted.value() == 3u; }));
    EXPECT_EQ(guard.count(), 0u) << "accept path allocated";
  }

  // Per-frame path: a session's worth of packets for a user not seen yet,
  // already sitting in the kernel buffer, must decode and ingest with zero
  // allocations on the loop thread (packet buffers come back through the
  // rings, the decode buffer is preallocated).
  const std::uint64_t before = streamed.value();
  for (const auto& packet : measured_stream) {
    client.send_packet(static_cast<std::int32_t>(measured_user), packet);
  }
  client.flush();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    testing::AllocGuard guard;
    ASSERT_TRUE(h.poll_until([&] {
      return streamed.value() == before + measured_stream.size();
    }));
    EXPECT_EQ(guard.count(), 0u) << "per-frame ingest path allocated";
  }
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(shim.counts().total(), 0u);
  EXPECT_EQ(h.counter("net.faults_injected"), 0u);
}

// ---------------------------------------------------------------------------
// Reconnect with resume

/// Sleep-polls a predicate (for tests that run the server's own loop
/// thread, where poll_until would race the loop).
template <typename Pred>
bool wait_until(Pred&& pred, std::chrono::milliseconds timeout =
                                 std::chrono::milliseconds(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(NetResumeTest, ReconnectQueriesCursorsAndResentOverlapShedsQuietly) {
  // Golden: session 0 in-process, so the net run's window count is known.
  FleetConfig config = base_config();
  config.anti_replay.replay_window = 4;  // overlap depth must exceed this
  const auto& packets = shared_fixture().session_packets(0);
  std::uint64_t golden_windows = 0;
  {
    FleetEngine engine(shared_fixture().provider(), config);
    for (const auto& p : packets) engine.ingest(0, p);
    engine.drain();
    golden_windows = engine.windows_classified();
  }

  Harness h(config);
  h.server->start();
  {
    Client first(h.address());
    for (const auto& p : packets) first.send_packet(0, p);
    first.flush();
    ASSERT_TRUE(wait_until([&] {
      return h.counter("net.packets_streamed") == packets.size() &&
             h.engine->windows_classified() == golden_windows;
    }));
    first.close();
  }

  // Reconnect: the cursor query must hand back exactly the per-channel
  // ingest frontier (max seq + 1 over everything consumed).
  Client second(h.address(), /*greet=*/true, wire::kHelloFlagReconnect);
  const wire::Cursors cursors = second.cursors(0);
  std::uint32_t want_ecg = 0, want_abp = 0;
  for (const auto& p : packets) {
    std::uint32_t& want =
        p.kind == wiot::ChannelKind::kEcg ? want_ecg : want_abp;
    want = std::max(want, p.seq + 1);
  }
  EXPECT_EQ(cursors.user_id, 0);
  EXPECT_EQ(cursors.ecg, want_ecg);
  EXPECT_EQ(cursors.abp, want_abp);

  // Resend the WHOLE stream — an overlap far beyond the replay window.
  // With the resume grace armed by the cursor query, every duplicate must
  // shed via the station dedupe: no anomalies, no suspicion, no windows.
  for (const auto& p : packets) second.send_packet(0, p);
  second.flush();
  ASSERT_TRUE(wait_until([&] {
    return h.counter("net.packets_streamed") == 2 * packets.size();
  }));
  h.server->stop();
  h.engine->drain();

  EXPECT_EQ(h.counter("fleet.seq_anomalies"), 0u);
  EXPECT_EQ(h.counter("fleet.suspect_sessions"), 0u);
  EXPECT_EQ(h.counter("fleet.sessions_quarantined"), 0u);
  EXPECT_EQ(h.engine->windows_classified(), golden_windows);
  EXPECT_EQ(h.counter("net.reconnects"), 1u);
  EXPECT_EQ(h.counter("net.resumes"), 1u);
}

/// Polls @p client's cursor query until both channel cursors cover @p user's
/// stream (one past its highest seq), as a sender confirming delivery does.
bool confirm_delivery(Client& client, std::int32_t user,
                      const std::vector<wiot::Packet>& packets) {
  std::uint32_t ecg = 0, abp = 0;
  for (const auto& p : packets) {
    std::uint32_t& c = p.kind == wiot::ChannelKind::kEcg ? ecg : abp;
    c = std::max(c, p.seq + 1);
  }
  return wait_until([&] {
    const wire::Cursors cursors = client.cursors(user);
    return cursors.ecg >= ecg && cursors.abp >= abp;
  });
}

TEST(NetResumeTest, DeliveryConfirmationIsAReadSoALaterReplayIsCharged) {
  // A sender that confirms delivery on its own connection is not resuming:
  // its cursor queries must leave the replay grace disarmed, so the same
  // stream replayed later on a fresh connection is charged as a replay.
  FleetConfig config = base_config();
  config.anti_replay.replay_window = 4;
  const auto& packets = shared_fixture().session_packets(0);
  std::uint64_t golden_windows = 0;
  {
    FleetEngine engine(shared_fixture().provider(), config);
    for (const auto& p : packets) engine.ingest(0, p);
    engine.drain();
    golden_windows = engine.windows_classified();
  }

  Harness h(config);
  h.server->start();
  Client first(h.address());
  for (const auto& p : packets) first.send_packet(0, p);
  ASSERT_TRUE(confirm_delivery(first, 0, packets));
  // Covering cursors were read under the worker's shard lock: every window
  // behind them is already counted.
  EXPECT_EQ(h.engine->windows_classified(), golden_windows);
  first.close();

  Client replay(h.address());
  for (const auto& p : packets) replay.send_packet(0, p);
  replay.flush();
  ASSERT_TRUE(wait_until([&] {
    return h.counter("net.packets_streamed") == 2 * packets.size();
  }));
  h.server->stop();
  h.engine->drain();

  EXPECT_GT(h.counter("fleet.seq_anomalies"), 0u);
  EXPECT_GT(h.counter("fleet.replay_dropped"), 0u);
  EXPECT_EQ(h.counter("net.resumes"), 0u);
  EXPECT_EQ(h.counter("net.reconnects"), 0u);
  EXPECT_EQ(h.engine->windows_classified(), golden_windows);
}

TEST(NetResumeTest, ReconnectCountsOneResumePerSessionThroughConfirmation) {
  // Query, resend, confirm: only the queries ahead of the first packet are
  // the resume, so each session counts exactly one net.resumes.
  FleetConfig config = base_config();
  config.anti_replay.replay_window = 4;
  const std::vector<std::int32_t> users = {0, 1, 2};
  std::uint64_t golden_windows = 0;
  {
    FleetEngine engine(shared_fixture().provider(), config);
    for (const std::int32_t u : users) {
      for (const auto& p : shared_fixture().session_packets(u)) {
        engine.ingest(u, p);
      }
    }
    engine.drain();
    golden_windows = engine.windows_classified();
  }

  Harness h(config);
  h.server->start();
  std::uint64_t total = 0;
  {
    Client first(h.address());
    for (const std::int32_t u : users) {
      for (const auto& p : shared_fixture().session_packets(u)) {
        first.send_packet(u, p);
        ++total;
      }
    }
    first.close();
    ASSERT_TRUE(wait_until(
        [&] { return h.counter("net.packets_streamed") == total; }));
  }

  Client second(h.address(), /*greet=*/true, wire::kHelloFlagReconnect);
  for (const std::int32_t u : users) (void)second.cursors(u);
  for (const std::int32_t u : users) {
    for (const auto& p : shared_fixture().session_packets(u)) {
      second.send_packet(u, p);
    }
  }
  for (const std::int32_t u : users) {
    ASSERT_TRUE(
        confirm_delivery(second, u, shared_fixture().session_packets(u)));
  }
  ASSERT_TRUE(wait_until(
      [&] { return h.counter("net.packets_streamed") == 2 * total; }));
  h.server->stop();
  h.engine->drain();

  EXPECT_EQ(h.counter("net.reconnects"), 1u);
  EXPECT_EQ(h.counter("net.resumes"), users.size());
  EXPECT_EQ(h.counter("fleet.seq_anomalies"), 0u);
  EXPECT_EQ(h.counter("fleet.suspect_sessions"), 0u);
  EXPECT_EQ(h.engine->windows_classified(), golden_windows);
}

TEST(NetResumeTest, CursorQueryForUnknownUserStartsFromZeroWithoutASession) {
  Harness h;
  h.server->start();
  Client client(h.address());
  const wire::Cursors cursors = client.cursors(777);
  EXPECT_EQ(cursors.user_id, 777);
  EXPECT_EQ(cursors.ecg, 0u);
  EXPECT_EQ(cursors.abp, 0u);
  // Anti-fabrication: querying must not have created session state.
  h.server->stop();
  (void)h.engine->metrics_json();  // refreshes the sessions_active gauge
  EXPECT_EQ(h.engine->metrics().gauge("fleet.sessions_active").value(), 0);
}

TEST(NetResumeTest, ChaoticWireResumesToBitIdenticalVerdictStreams) {
  // The tentpole's live half: clients whose every send/recv runs through an
  // armed fault shim (resets, mid-frame kills, partial writes, short
  // reads, stalls, spurious EAGAIN) must — via reconnect + cursor resume —
  // deliver per-user journals bit-identical to an undisturbed in-process
  // run. The schedule is a pure function of the seed, so a failure replays.
  constexpr std::size_t kChaosUsers = 16;
  fleet::durable::DurabilityConfig durable_config;
  durable_config.journal.fsync_on_flush = false;
  FleetConfig config = base_config();
  config.anti_replay.replay_window = 4;

  ScopedDir golden_dir("chaos_golden");
  std::map<int, std::vector<VerdictRecord>> golden;
  std::uint64_t golden_windows = 0, golden_alerts = 0;
  {
    fleet::durable::Durability durability(golden_dir.path, durable_config);
    FleetConfig golden_config = config;
    golden_config.durability = &durability;
    FleetEngine engine(shared_fixture().provider(), golden_config);
    for (std::size_t user = 0; user < kChaosUsers; ++user) {
      for (const auto& packet : shared_fixture().session_packets(user)) {
        engine.ingest(static_cast<int>(user), packet);
      }
    }
    engine.drain();
    golden_windows = engine.windows_classified();
    golden_alerts = engine.alerts();
    durability.flush();
    golden = records_by_user(
        fleet::durable::Durability::scan_merged(golden_dir.path));
  }
  ASSERT_EQ(golden.size(), kChaosUsers);

  ScopedDir net_dir("chaos_net");
  fleet::durable::Durability durability(net_dir.path, durable_config);
  Harness h(config, {}, &durability);
  h.server->start();

  NetFaultConfig fault_config;
  // Client writes coalesce into few large sends, so per-call rates are set
  // high enough that connection-fatal faults certainly fire for this seed.
  fault_config.seed = 20170605;
  fault_config.partial_write_probability = 0.25;
  fault_config.write_eagain_probability = 0.05;
  fault_config.write_stall_probability = 0.02;
  fault_config.read_stall_probability = 0.02;
  fault_config.short_read_probability = 0.10;
  fault_config.reset_probability = 0.05;
  fault_config.midframe_kill_probability = 0.05;
  fault_config.stall = std::chrono::milliseconds(1);
  FaultyTransport shim(fault_config);

  DriveConfig drive;
  drive.address = h.address();
  drive.connections = 4;
  drive.faults = &shim;
  drive.settle_timeout = std::chrono::milliseconds(120000);
  std::vector<std::vector<wiot::Packet>> streams;
  for (std::size_t s = 0; s < kChaosUsers; ++s) {
    streams.push_back(shared_fixture().session_packets(s));
  }
  const DriveResult result = drive_load(drive, streams);
  ASSERT_TRUE(result.settled);
  EXPECT_GT(shim.counts().total(), 0u);
  // Connection-fatal faults fired (deterministic for this seed), so the
  // resume path actually ran.
  EXPECT_GE(result.reconnects, 1u);
  EXPECT_GE(result.resumes, 1u);

  h.server->stop();
  h.engine->drain();
  durability.flush();

  // Resent overlap must shed quietly: no anomalies, no quarantines.
  EXPECT_EQ(h.counter("fleet.seq_anomalies"), 0u);
  EXPECT_EQ(h.counter("fleet.suspect_sessions"), 0u);
  EXPECT_EQ(h.engine->windows_classified(), golden_windows);
  EXPECT_EQ(h.engine->alerts(), golden_alerts);

  const auto net_records =
      records_by_user(fleet::durable::Durability::scan_merged(net_dir.path));
  ASSERT_EQ(net_records.size(), golden.size());
  for (const auto& [user, records] : net_records) {
    ASSERT_TRUE(golden.count(user)) << "unexpected user " << user;
    const auto& golden_records = golden[user];
    ASSERT_EQ(records.size(), golden_records.size()) << "user " << user;
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_record_eq(records[i], golden_records[i], user, i);
    }
  }
}

// ---------------------------------------------------------------------------
// Closed loop: socket ingest must be bit-identical to in-process ingest

TEST(NetClosedLoopTest, DriveMatchesInProcessVerdictStreams) {
  fleet::durable::DurabilityConfig durable_config;
  durable_config.journal.fsync_on_flush = false;

  FleetConfig config = base_config();
  config.workers = 4;
  config.shards = 8;
  config.queue_capacity = 64;  // small enough to exercise backpressure

  // Golden: the whole cohort in-process, journaled.
  ScopedDir golden_dir("loop_golden");
  std::map<int, std::vector<VerdictRecord>> golden;
  std::uint64_t golden_windows = 0, golden_alerts = 0;
  {
    fleet::durable::Durability durability(golden_dir.path, durable_config);
    FleetConfig golden_config = config;
    golden_config.durability = &durability;
    FleetEngine engine(shared_fixture().provider(), golden_config);
    fleet::replay_through(engine, shared_fixture(), /*producers=*/8);
    golden_windows = engine.windows_classified();
    golden_alerts = engine.alerts();
    durability.flush();
    golden = records_by_user(
        fleet::durable::Durability::scan_merged(golden_dir.path));
  }
  ASSERT_EQ(golden.size(), kUsers);

  // Net: same streams over 32 Unix-socket connections, threaded loop.
  ScopedDir net_dir("loop_net");
  fleet::durable::Durability durability(net_dir.path, durable_config);
  Harness h(config, {}, &durability);
  h.server->start();

  DriveConfig drive;
  drive.address = h.address();
  drive.connections = kConnections;
  const std::vector<std::vector<wiot::Packet>> streams = [&] {
    std::vector<std::vector<wiot::Packet>> out;
    out.reserve(shared_fixture().sessions());
    for (std::size_t s = 0; s < shared_fixture().sessions(); ++s) {
      out.push_back(shared_fixture().session_packets(s));
    }
    return out;
  }();
  const DriveResult result = drive_load(drive, streams);
  ASSERT_TRUE(result.settled);
  EXPECT_EQ(result.packets_sent, shared_fixture().total_packets());
  EXPECT_EQ(result.after.packets_accepted - result.before.packets_accepted,
            result.packets_sent);

  h.server->stop();
  h.engine->drain();
  durability.flush();

  EXPECT_EQ(h.engine->windows_classified(), golden_windows);
  EXPECT_EQ(h.engine->alerts(), golden_alerts);
  EXPECT_EQ(h.counter("fleet.packets_rejected"), 0u);
  EXPECT_EQ(h.counter("net.packets_abandoned"), 0u);

  // The global journal interleave differs (different worker timing); the
  // per-user verdict streams must be bit-identical — same windows, same
  // decision values, same tiers, same flags, same order.
  const auto net_records =
      records_by_user(fleet::durable::Durability::scan_merged(net_dir.path));
  ASSERT_EQ(net_records.size(), golden.size());
  for (const auto& [user, records] : net_records) {
    ASSERT_TRUE(golden.count(user)) << "unexpected user " << user;
    const auto& golden_records = golden[user];
    ASSERT_EQ(records.size(), golden_records.size()) << "user " << user;
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_record_eq(records[i], golden_records[i], user, i);
    }
  }
}

TEST(NetClosedLoopTest, TcpStressSurvivesConcurrentClientsAndStats) {
  FleetConfig config = base_config();
  config.queue_capacity = 32;  // force real backpressure stalls
  NetServerConfig net_config;
  net_config.listen = "tcp:127.0.0.1:0";
  Harness h(config, net_config);
  h.server->start();

  DriveConfig drive;
  drive.address = h.address();
  drive.connections = 8;
  std::vector<std::vector<wiot::Packet>> streams;
  for (std::size_t s = 0; s < 24; ++s) {
    streams.push_back(shared_fixture().session_packets(s));
  }
  const DriveResult result = drive_load(drive, streams);
  ASSERT_TRUE(result.settled);
  EXPECT_EQ(result.after.packets_accepted - result.before.packets_accepted,
            result.packets_sent);
  h.server->stop();
  h.engine->drain();
  EXPECT_EQ(h.counter("net.protocol_errors"), 0u);
  EXPECT_EQ(h.counter("net.packets_streamed"), result.packets_sent);
}

}  // namespace
}  // namespace sift::net
