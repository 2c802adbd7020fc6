#include "net/wire.hpp"

#include "io/framed.hpp"
#include "io/state.hpp"

namespace sift::net::wire {

namespace {

/// Runs a StateReader decode body, converting the codec's truncation
/// throws into wire::Error and enforcing the no-trailing-bytes rule.
template <typename Fn>
auto strict_decode(std::span<const std::uint8_t> payload, const char* what,
                   Fn&& fn) {
  io::StateReader reader(payload);
  try {
    auto value = fn(reader);
    if (!reader.exhausted()) {
      throw Error(std::string("wire: trailing bytes in ") + what);
    }
    return value;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error(std::string("wire: truncated ") + what);
  }
}

void expect_type(io::StateReader& reader, MsgType want, const char* what) {
  if (reader.u8() != static_cast<std::uint8_t>(want)) {
    throw Error(std::string("wire: wrong message type for ") + what);
  }
}

/// A count field is checked against the bytes left in the payload before
/// the buffer it sizes is resized: a short frame claiming a large count
/// throws without growing the caller's buffer.
void expect_remaining(const io::StateReader& reader, std::size_t bytes) {
  if (reader.remaining() < bytes) throw Error("wire: truncated packet");
}

}  // namespace

void Encoder::hello(std::vector<std::uint8_t>& out, std::uint8_t flags) {
  payload_.clear();
  io::StateWriter w(payload_);
  w.u8(static_cast<std::uint8_t>(MsgType::kHello));
  w.u32(kProtocolVersion);
  // Zero flags encode as the bare version-1 form, so a fresh connect is
  // byte-identical to what pre-resume peers sent.
  if (flags != 0) w.u8(flags);
  io::append_frame(out, payload_);
}

void Encoder::packet(std::vector<std::uint8_t>& out, std::int32_t user_id,
                     const wiot::Packet& packet) {
  if (packet.samples.size() > kMaxSamplesPerPacket) {
    throw Error("wire: packet exceeds kMaxSamplesPerPacket");
  }
  if (packet.peaks.size() > kMaxPeaksPerPacket) {
    throw Error("wire: packet exceeds kMaxPeaksPerPacket");
  }
  payload_.clear();
  io::StateWriter w(payload_);
  w.u8(static_cast<std::uint8_t>(MsgType::kPacket));
  w.i32(user_id);
  w.u8(packet.kind == wiot::ChannelKind::kEcg ? 0 : 1);
  w.u32(packet.seq);
  w.f64(packet.sample_rate_hz);
  w.u32(static_cast<std::uint32_t>(packet.samples.size()));
  w.f64s(packet.samples);
  w.u32(static_cast<std::uint32_t>(packet.peaks.size()));
  for (const std::size_t p : packet.peaks) {
    w.u32(static_cast<std::uint32_t>(p));
  }
  io::append_frame(out, payload_);
}

void Encoder::stats_request(std::vector<std::uint8_t>& out) {
  payload_.clear();
  io::StateWriter w(payload_);
  w.u8(static_cast<std::uint8_t>(MsgType::kStatsRequest));
  io::append_frame(out, payload_);
}

void Encoder::stats_reply(std::vector<std::uint8_t>& out,
                          const Stats& stats) {
  payload_.clear();
  io::StateWriter w(payload_);
  w.u8(static_cast<std::uint8_t>(MsgType::kStatsReply));
  w.u64(stats.frames_in);
  w.u64(stats.packets_offered);
  w.u64(stats.packets_accepted);
  w.u64(stats.packets_rejected);
  w.u64(stats.queue_depth);
  w.u64(stats.windows_classified);
  w.u64(stats.alerts);
  w.u64(stats.connections_open);
  io::append_frame(out, payload_);
}

void Encoder::cursor_request(std::vector<std::uint8_t>& out,
                             std::int32_t user_id) {
  payload_.clear();
  io::StateWriter w(payload_);
  w.u8(static_cast<std::uint8_t>(MsgType::kCursorRequest));
  w.i32(user_id);
  io::append_frame(out, payload_);
}

void Encoder::cursor_reply(std::vector<std::uint8_t>& out,
                           const Cursors& cursors) {
  payload_.clear();
  io::StateWriter w(payload_);
  w.u8(static_cast<std::uint8_t>(MsgType::kCursorReply));
  w.i32(cursors.user_id);
  w.u32(cursors.ecg);
  w.u32(cursors.abp);
  io::append_frame(out, payload_);
}

MsgType message_type(std::span<const std::uint8_t> payload) {
  if (payload.empty()) throw Error("wire: empty payload");
  const std::uint8_t type = payload[0];
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kCursorReply)) {
    throw Error("wire: unknown message type " + std::to_string(type));
  }
  return static_cast<MsgType>(type);
}

Hello decode_hello(std::span<const std::uint8_t> payload) {
  return strict_decode(payload, "hello", [](io::StateReader& r) {
    expect_type(r, MsgType::kHello, "hello");
    Hello h;
    h.version = r.u32();
    if (!r.exhausted()) h.flags = r.u8();
    return h;
  });
}

std::int32_t decode_packet(std::span<const std::uint8_t> payload,
                           wiot::Packet& into) {
  return strict_decode(payload, "packet", [&into](io::StateReader& r) {
    expect_type(r, MsgType::kPacket, "packet");
    const std::int32_t user_id = r.i32();
    const std::uint8_t kind = r.u8();
    if (kind > 1) throw Error("wire: bad channel kind");
    into.kind = kind == 0 ? wiot::ChannelKind::kEcg : wiot::ChannelKind::kAbp;
    into.seq = r.u32();
    into.sample_rate_hz = r.f64();
    const std::uint32_t n_samples = r.u32();
    if (n_samples > kMaxSamplesPerPacket) {
      throw Error("wire: sample count exceeds bound");
    }
    expect_remaining(r, 8 * std::size_t{n_samples});
    into.samples.resize(n_samples);
    r.f64s(into.samples);
    const std::uint32_t n_peaks = r.u32();
    if (n_peaks > kMaxPeaksPerPacket) {
      throw Error("wire: peak count exceeds bound");
    }
    expect_remaining(r, 4 * std::size_t{n_peaks});
    into.peaks.resize(n_peaks);
    for (std::uint32_t i = 0; i < n_peaks; ++i) into.peaks[i] = r.u32();
    return user_id;
  });
}

Stats decode_stats_reply(std::span<const std::uint8_t> payload) {
  return strict_decode(payload, "stats reply", [](io::StateReader& r) {
    expect_type(r, MsgType::kStatsReply, "stats reply");
    Stats s;
    s.frames_in = r.u64();
    s.packets_offered = r.u64();
    s.packets_accepted = r.u64();
    s.packets_rejected = r.u64();
    s.queue_depth = r.u64();
    s.windows_classified = r.u64();
    s.alerts = r.u64();
    s.connections_open = r.u64();
    return s;
  });
}

std::int32_t decode_cursor_request(std::span<const std::uint8_t> payload) {
  return strict_decode(payload, "cursor request", [](io::StateReader& r) {
    expect_type(r, MsgType::kCursorRequest, "cursor request");
    return r.i32();
  });
}

Cursors decode_cursor_reply(std::span<const std::uint8_t> payload) {
  return strict_decode(payload, "cursor reply", [](io::StateReader& r) {
    expect_type(r, MsgType::kCursorReply, "cursor reply");
    Cursors c;
    c.user_id = r.i32();
    c.ecg = r.u32();
    c.abp = r.u32();
    return c;
  });
}

}  // namespace sift::net::wire
