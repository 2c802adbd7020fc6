// Deterministic wire-fault injection for the network plane.
//
// The transport-resilience suite needs a hostile wire it can *replay*: a
// failing seed must reproduce the exact same partial writes, stalls, short
// reads, resets, and mid-frame kills on every run, independent of thread
// interleaving. FaultyTransport therefore sits between the gateway/client
// and the send(2)/recv(2) syscalls and decides each injection statelessly,
// from a splitmix64 hash of (seed, connection id, byte offset, fault kind)
// — the same schedule style as fleet::FaultInjector, keyed on wire position
// instead of packet identity so both ends of a connection can share one
// schedule without coordinating.
//
// Injection points (fixed precedence per call, first coin that lands wins):
//   send — connection reset (shutdown + ECONNRESET), mid-frame kill (real
//          send of a prefix, then shutdown), write stall (sleep, then real
//          send), spurious EAGAIN (arms the caller's want-write path), and
//          partial write (clamped length).
//   recv — connection reset, read stall (sleep, then real recv), and short
//          read (clamped length, exercising the frame decoder's resume).
//
// A shim with every probability at zero is "disarmed": send/recv are plain
// passthrough syscalls with one branch of overhead and no allocation, so it
// can stay compiled into the steady-state path (the alloc-guard test pins
// this down).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <sys/types.h>

#include "fleet/metrics.hpp"

namespace sift::net {

struct NetFaultConfig {
  std::uint64_t seed = 1;

  // Per-call probabilities; all zero = disarmed passthrough.
  double partial_write_probability = 0.0;   ///< clamp send to a prefix
  double write_stall_probability = 0.0;     ///< sleep, then real send
  double write_eagain_probability = 0.0;    ///< spurious EAGAIN (no bytes)
  double read_stall_probability = 0.0;      ///< sleep, then real recv
  double short_read_probability = 0.0;      ///< clamp recv length
  double reset_probability = 0.0;           ///< shutdown + ECONNRESET
  double midframe_kill_probability = 0.0;   ///< send a prefix, then shutdown

  std::chrono::milliseconds stall{2};  ///< duration of injected stalls
};

/// Aggregate injection counts (what actually fired, for exact assertions).
struct NetFaultCounts {
  std::uint64_t partial_writes = 0;
  std::uint64_t write_stalls = 0;
  std::uint64_t write_eagain = 0;
  std::uint64_t read_stalls = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t resets = 0;
  std::uint64_t midframe_kills = 0;

  std::uint64_t total() const noexcept {
    return partial_writes + write_stalls + write_eagain + read_stalls +
           short_reads + resets + midframe_kills;
  }
};

class FaultyTransport {
 public:
  explicit FaultyTransport(NetFaultConfig config);

  const NetFaultConfig& config() const noexcept { return config_; }

  /// True when any probability is non-zero; a disarmed shim is a plain
  /// passthrough and safe to leave on the hot path.
  bool armed() const noexcept { return armed_; }

  /// Optional fleet counter bumped once per injection (net.faults_injected).
  void attach_counter(fleet::Counter* counter) noexcept { counter_ = counter; }

  /// send(2) with scheduled faults. @p offset is the connection's cumulative
  /// transmitted-byte offset *before* this call — the schedule key.
  ssize_t send(std::uint64_t conn_id, std::uint64_t offset, int fd,
               const void* buf, std::size_t len, int flags);

  /// recv(2) with scheduled faults; @p offset is the cumulative received-byte
  /// offset before this call.
  ssize_t recv(std::uint64_t conn_id, std::uint64_t offset, int fd, void* buf,
               std::size_t len, int flags);

  NetFaultCounts counts() const;

 private:
  void injected(std::atomic<std::uint64_t>& counter) noexcept;

  NetFaultConfig config_;
  bool armed_ = false;
  fleet::Counter* counter_ = nullptr;

  std::atomic<std::uint64_t> partial_writes_{0};
  std::atomic<std::uint64_t> write_stalls_{0};
  std::atomic<std::uint64_t> write_eagain_{0};
  std::atomic<std::uint64_t> read_stalls_{0};
  std::atomic<std::uint64_t> short_reads_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> midframe_kills_{0};
};

}  // namespace sift::net
