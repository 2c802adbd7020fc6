// The network ingest plane: a single-threaded epoll event loop that
// terminates the framed wire protocol and feeds the fleet engine.
//
//   accept ──► Connection slot (preallocated, recycled)
//                 │ recv() straight into the decoder's room
//                 ▼
//              io::FrameDecoder (per connection, capacity retained)
//                 │ complete CRC-verified payloads
//                 ▼
//              wire::decode_packet ──► FleetEngine::try_ingest
//
// Ownership: every socket, buffer, and decoder belongs to the loop thread.
// Workers never touch a connection; the loop never touches a session. The
// only cross-thread traffic is try_ingest: a lock-free swap onto the loop's
// own SPSC ring toward the owning worker, which hands the connection's
// parse target back holding the buffers of a packet that worker already
// classified. The loop is data-race-free by construction rather than by
// locking discipline, and the per-frame path allocates nothing once the
// rings are warm.
//
// Backpressure: a full worker ring under kBlock surfaces as kWouldBlock.
// The loop parks the decoded packet in its connection, gates that
// connection's reads (EPOLLIN removed), and retries on short ticks; the
// kernel socket buffer then fills and TCP pushes the stall all the way
// back to the sender. One hot shard slows only the connections feeding
// it — everyone else keeps streaming.
//
// Protocol errors are terminal per connection: a corrupt frame, unknown
// message, bad hello, or malformed packet closes the socket and counts
// net.protocol_errors. The framed stream cannot resynchronise mid-
// connection, and a peer that framed garbage once will frame it again.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fleet/engine.hpp"
#include "io/framed.hpp"
#include "net/faults.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace sift::net {

struct NetServerConfig {
  /// unix:PATH or tcp:HOST:PORT (port 0 = ephemeral; see address()).
  std::string listen = "tcp:127.0.0.1:0";
  std::size_t max_connections = 256;
  /// Idle connections are closed after this long without a byte (0 = never).
  std::chrono::milliseconds idle_timeout{0};
  /// Stalled connections — a parked would-block packet or an undrained
  /// reply — get their own, longer deadline: a peer that never drains (or a
  /// shard that never frees) must not park a slot forever. 0 derives
  /// 4 × idle_timeout; both zero = never reaped. Reaps count
  /// net.stall_reaps and conserve the parked packet in
  /// net.packets_abandoned.
  std::chrono::milliseconds stall_timeout{0};
  /// Per-connection leaky-bucket ingest rate limit (packets/second;
  /// 0 = unlimited). An over-rate packet is dropped *after* decode — the
  /// frame stream stays synchronised — and charges one suspicion step
  /// against the wearer's session, so a flooding connection walks itself
  /// into the anti-replay quarantine. The bucket holds one second's worth.
  double rate_limit_pps = 0;
  /// Connections accepted per listener wakeup before yielding back to the
  /// event loop (0 = unbounded). Bounds how long a connect flood can
  /// starve established sessions; the listener stays level-triggered, so
  /// deferred accepts fire on the next cycle (counted in
  /// net.accept_deferrals).
  std::size_t accept_burst = 64;
  /// Wire-fault shim (non-owning, may be null). A disarmed shim is a plain
  /// passthrough; see net/faults.hpp.
  FaultyTransport* faults = nullptr;
};

class NetServer {
 public:
  /// Binds and arms the listener immediately (constructed == accepting as
  /// soon as the loop runs).
  /// @throws std::runtime_error on bind/listen/epoll failure.
  NetServer(fleet::FleetEngine& engine, NetServerConfig config);
  ~NetServer();  ///< stops (gracefully) if the caller has not

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Spawns the event-loop thread. Alternative to poll_once-driving.
  void start();

  /// Graceful shutdown: stops the loop, then flushes every connection's
  /// parked packet and already-decoded frames into the engine via blocking
  /// ingest (lossless under kBlock) before closing the sockets — a frame
  /// the kernel acked to the sender is never dropped by a clean shutdown.
  /// The listener is closed (and a unix socket path unlinked) so the
  /// address is immediately rebindable. Idempotent; not re-entrant.
  void stop();

  /// Crash-stop for the kill-matrix tests: stops the loop and closes every
  /// socket WITHOUT flushing parked packets or decoded frames into the
  /// engine — the in-process equivalent of SIGKILL hitting the gateway,
  /// leaving recovery to the durability layer. Idempotent with stop().
  void halt();

  /// Runs one event-loop cycle on the CALLER's thread: wait (bounded by
  /// @p max_wait, shortened when stalls or idle scans are due), dispatch
  /// readiness, retry gated connections, reap idle ones. This is both the
  /// body of the loop thread and the test seam that lets an allocation
  /// guard watch the per-frame path from its own thread.
  void poll_once(std::chrono::milliseconds max_wait);

  /// Canonical listen address with any ephemeral port resolved.
  const std::string& address() const noexcept { return address_; }
  std::size_t open_connections() const noexcept {
    return open_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    explicit Connection(std::size_t max_payload) : decoder(max_payload) {}

    Fd fd;
    io::FrameDecoder decoder;
    /// Parse target; doubles as the parked packet while backpressured.
    wiot::Packet packet;
    std::int32_t pending_user = 0;
    bool has_pending = false;  ///< packet decoded but engine said would-block
    bool greeted = false;      ///< hello seen (required first frame)
    bool resuming = false;     ///< reconnect hello seen, no PACKET yet
    bool gated = false;        ///< EPOLLIN removed (backpressure)
    bool saw_eof = false;
    bool want_write = false;   ///< EPOLLOUT armed for a partial reply
    std::vector<std::uint8_t> out;  ///< pending reply bytes
    std::size_t out_head = 0;
    std::chrono::steady_clock::time_point last_activity{};
    std::size_t slot = 0;
    bool in_use = false;
    /// Monotonic per-accept id: the fault shim's schedule key, so slot
    /// recycling does not replay a previous connection's fault schedule.
    std::uint64_t id = 0;
    std::uint64_t rx_offset = 0;  ///< cumulative bytes received (shim key)
    std::uint64_t tx_offset = 0;  ///< cumulative bytes sent (shim key)
    double tokens = 0;            ///< leaky-bucket level (packets)
    std::chrono::steady_clock::time_point token_refill{};
  };

  enum class FrameAction { kContinue, kStall, kClose };

  void loop();
  void wake();
  void accept_ready();
  /// Read→decode→ingest until a short read drains the socket, the engine
  /// pushes back (gates the connection), or the connection ends.
  void pump(Connection& conn);
  FrameAction on_frame(Connection& conn, std::span<const std::uint8_t> payload);
  FrameAction offer(Connection& conn, std::int32_t user_id);
  bool retry_pending(Connection& conn);
  void retry_stalled();
  /// Reaps idle connections against idle_timeout and stalled ones against
  /// the (longer) stall deadline.
  void scan_deadlines();
  /// Effective stall deadline (stall_timeout, or 4 × idle_timeout; 0 = off).
  std::chrono::milliseconds stall_deadline() const noexcept;
  /// Refills and consumes one leaky-bucket token; false = over rate.
  bool take_token(Connection& conn);
  void send_stats(Connection& conn);
  void send_cursors(Connection& conn, std::int32_t user_id);
  /// @returns false when the socket errored (caller closes).
  bool flush_out(Connection& conn);
  void set_gated(Connection& conn, bool gate);
  void update_epoll(Connection& conn);
  void close_conn(Connection& conn);
  void shutdown_flush();

  fleet::FleetEngine& engine_;
  NetServerConfig config_;
  std::string address_;

  Fd listen_;
  Fd epoll_;
  Fd wake_fd_;
  std::vector<Connection> slots_;
  std::vector<std::size_t> free_slots_;
  wire::Encoder encoder_;
  int stalled_ = 0;  ///< gated connections (drives the short retry tick)
  std::chrono::steady_clock::time_point next_deadline_scan_{};
  std::uint64_t next_conn_id_ = 1;

  std::atomic<bool> stop_requested_{false};
  std::atomic<std::size_t> open_count_{0};
  bool flushed_ = false;

  // net.* instruments, resolved once against the engine's registry so the
  // gateway shows up in the same metrics_json() snapshot as the fleet.
  fleet::Counter* accepted_ = nullptr;
  fleet::Counter* closed_ = nullptr;
  fleet::Counter* refused_ = nullptr;
  fleet::Counter* frames_in_ = nullptr;
  fleet::Counter* bytes_in_ = nullptr;
  fleet::Counter* packets_in_ = nullptr;
  fleet::Counter* streamed_ = nullptr;
  fleet::Counter* stalls_ = nullptr;
  fleet::Counter* protocol_errors_ = nullptr;
  fleet::Counter* idle_timeouts_ = nullptr;
  fleet::Counter* abandoned_ = nullptr;
  fleet::Counter* fleet_rejected_ = nullptr;  ///< fleet.packets_rejected
  fleet::Counter* reconnects_ = nullptr;      ///< hellos with the reconnect flag
  fleet::Counter* resumes_ = nullptr;         ///< queries that armed a resume
  fleet::Counter* stall_reaps_ = nullptr;     ///< stalled peers reaped
  fleet::Counter* rate_limited_ = nullptr;    ///< packets shed by the bucket
  fleet::Counter* accept_deferrals_ = nullptr;
  fleet::Gauge* open_gauge_ = nullptr;

  std::jthread thread_;  ///< last member: joins before teardown
};

}  // namespace sift::net
