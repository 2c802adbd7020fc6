// Wire-protocol client and the closed-loop load driver.
//
// Client is deliberately simple and blocking — it models a base station
// uplink (or a test), not another event loop. Writes are buffered so a
// session's packets coalesce into few syscalls; stats() is the one
// request/response exchange, used by the driver to close the loop.
//
// drive_load() is the other end of `siftctl serve`: it synthesises the
// exact per-session packet streams fleet::build_session_streams produces
// for a config, fans them over N connections (sessions partitioned by
// connection, time-major order per connection, so per-user FIFO order is
// preserved end to end), then polls server stats until everything it sent
// has been accepted or rejected and the queues are empty. With the same
// seed/users/seconds, an in-process replay of the same config must produce
// identical per-user verdict streams — that equality is the subsystem's
// correctness test.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "io/framed.hpp"
#include "net/faults.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "wiot/packet.hpp"

namespace sift::net {

/// Client-side I/O retry accounting: how rough the wire actually was.
/// EINTR and partial reads/writes are handled against the deadline rather
/// than surfaced as spurious errors; this records that they happened.
struct ClientIoStats {
  std::uint64_t eintr_retries = 0;   ///< EINTR on poll/recv/send, retried
  std::uint64_t partial_reads = 0;   ///< reply reads that left a frame torn
  std::uint64_t partial_writes = 0;  ///< sends that took < the whole buffer
};

class Client {
 public:
  /// Connects (blocking) and, when @p greet is set, buffers the hello
  /// frame the server requires first (with @p hello_flags — a reconnecting
  /// client announces itself with wire::kHelloFlagReconnect).
  /// @throws std::runtime_error on connect failure.
  explicit Client(const std::string& address, bool greet = true,
                  std::uint8_t hello_flags = 0);

  /// Routes this client's socket I/O through a wire-fault shim (non-owning;
  /// @p conn_id keys the schedule so each connection faults independently).
  void set_faults(FaultyTransport* faults, std::uint64_t conn_id) noexcept {
    faults_ = faults;
    conn_id_ = conn_id;
  }

  /// Buffers one packet frame; auto-flushes past the buffer watermark.
  /// @throws wire::Error / std::runtime_error on encode or socket failure.
  void send_packet(std::int32_t user_id, const wiot::Packet& packet);

  /// Writes everything buffered.
  void flush();

  /// Raw bytes on the wire, after flushing the buffer — the malformed-
  /// input fuzzing seam (corrupted frames go out exactly as given).
  void send_raw(std::span<const std::uint8_t> bytes);

  /// Round-trips a stats request. @throws wire::Error on timeout, a
  /// corrupt reply stream, or the server closing the connection.
  wire::Stats stats(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Round-trips a cursor query: where should this wearer's stream resume?
  /// @throws wire::Error on timeout or a broken reply stream.
  wire::Cursors cursors(
      std::int32_t user_id,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Half-closes gracefully (flush + FIN); the object is then spent.
  void close();

  int fd() const noexcept { return fd_.get(); }
  const ClientIoStats& io_stats() const noexcept { return io_stats_; }

 private:
  void write_all(std::span<const std::uint8_t> bytes);
  /// Waits (bounded) for the next complete reply frame, retrying EINTR and
  /// partial reads against the deadline. The span points into the decoder
  /// and stays valid until the next read.
  std::span<const std::uint8_t> await_frame(std::chrono::milliseconds timeout);

  Fd fd_;
  wire::Encoder encoder_;
  std::vector<std::uint8_t> buf_;
  io::FrameDecoder decoder_;  ///< reply stream (stats / cursors)
  std::array<std::uint8_t, 4096> rx_{};
  FaultyTransport* faults_ = nullptr;
  std::uint64_t conn_id_ = 0;
  std::uint64_t tx_offset_ = 0;  ///< cumulative bytes sent (shim key)
  std::uint64_t rx_offset_ = 0;  ///< cumulative bytes received (shim key)
  ClientIoStats io_stats_;
};

/// Reconnect-with-resume sender configuration (see send_streams_resuming).
struct ResumeConfig {
  std::string address;
  /// Total wall-clock budget across all attempts before giving up.
  std::chrono::milliseconds give_up{60000};
  /// Per-time-step pacing (steps/s; 0 = as fast as the wire accepts).
  double rate_hz = 0.0;
  FaultyTransport* faults = nullptr;  ///< non-owning; null = clean wire
  std::uint64_t conn_id = 0;          ///< base fault-schedule key
};

struct ResumeResult {
  std::uint64_t packets_sent = 0;  ///< wire sends, including re-sent overlap
  std::uint64_t reconnects = 0;
  std::uint64_t resumes = 0;         ///< cursor queries that answered
  std::uint64_t packets_skipped = 0; ///< already durable; not re-sent
  /// Every stream CONSUMED: completion is confirmed against the server's
  /// cursors, not inferred from successful sends — a gateway that dies with
  /// the tail in its rings never acked it.
  bool completed = false;
};

/// Sends each (user, stream) pair time-major over one connection, surviving
/// the wire: on any transport error it backs off, reconnects with the
/// reconnect hello flag, queries each user's durable cursors, rewinds or
/// fast-forwards to the first packet the fleet has not consumed, and keeps
/// going. Each reconnect gets a fresh fault-schedule key (conn_id advances)
/// so a deterministic shim cannot pin the retry loop on one fault.
ResumeResult send_streams_resuming(
    const ResumeConfig& config,
    const std::vector<std::pair<std::int32_t, const std::vector<wiot::Packet>*>>&
        sessions);

struct DriveConfig {
  std::string address;
  std::size_t connections = 4;
  std::size_t users = 32;          ///< concurrent sessions to synthesise
  double seconds = 12.0;           ///< trace length per session
  /// Per-session packet pacing (packets/s). 0 = closed-loop as fast as the
  /// server accepts (TCP/backpressure-limited).
  double rate_hz = 0.0;
  std::size_t distinct_users = 4;  ///< physiologies behind the sessions
  std::size_t samples_per_packet = 180;
  std::uint64_t seed = 2017;
  std::chrono::milliseconds settle_timeout{60000};
  /// Chaos mode: route every sender through this wire-fault shim and use
  /// the reconnect-with-resume path (non-owning; null = clean wire).
  FaultyTransport* faults = nullptr;
  /// Use resuming senders even on a clean wire (survives server restarts).
  bool resume = false;
};

struct DriveResult {
  std::uint64_t packets_sent = 0;
  double send_seconds = 0.0;   ///< wall time for the send fan-out
  double total_seconds = 0.0;  ///< send + settle
  bool settled = false;        ///< everything sent was accounted for
  wire::Stats before;          ///< server counters when the drive began
  wire::Stats after;           ///< ... and after settling
  // Resilience accounting (resume/chaos mode only; zero otherwise).
  std::uint64_t reconnects = 0;
  std::uint64_t resumes = 0;
  std::uint64_t packets_skipped = 0;
};

/// Synthesises the streams for @p config and drives them; see file header.
/// @throws std::runtime_error on connect failure.
DriveResult drive_load(const DriveConfig& config);

/// Same, over caller-provided per-session streams (streams.size() sessions):
/// tests drive a fixture's streams so the wire run and its in-process golden
/// share one synthesis.
DriveResult drive_load(const DriveConfig& config,
                       const std::vector<std::vector<wiot::Packet>>& streams);

}  // namespace sift::net
