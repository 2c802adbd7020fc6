#include "net/faults.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <thread>
#include <utility>

#include "core/splitmix.hpp"

namespace sift::net {

namespace {

// Salts keep each fault kind's coin independent at the same wire position.
enum : std::uint64_t {
  kSaltReset = 1,
  kSaltMidframeKill = 2,
  kSaltWriteStall = 3,
  kSaltWriteEagain = 4,
  kSaltPartialWrite = 5,
  kSaltReadStall = 6,
  kSaltShortRead = 7,
};

}  // namespace

FaultyTransport::FaultyTransport(NetFaultConfig config)
    : config_(std::move(config)) {
  armed_ = config_.partial_write_probability > 0.0 ||
           config_.write_stall_probability > 0.0 ||
           config_.write_eagain_probability > 0.0 ||
           config_.read_stall_probability > 0.0 ||
           config_.short_read_probability > 0.0 ||
           config_.reset_probability > 0.0 ||
           config_.midframe_kill_probability > 0.0;
}

void FaultyTransport::injected(std::atomic<std::uint64_t>& counter) noexcept {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (counter_ != nullptr) counter_->add(1);
}

ssize_t FaultyTransport::send(std::uint64_t conn_id, std::uint64_t offset,
                              int fd, const void* buf, std::size_t len,
                              int flags) {
  if (!armed_) return ::send(fd, buf, len, flags);

  if (core::coin(config_.reset_probability, config_.seed, conn_id, offset,
                 kSaltReset)) {
    injected(resets_);
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  // A mid-frame kill delivers a strict prefix, then severs the wire — the
  // receiver sees a torn frame followed by EOF. Needs len >= 2 for the
  // prefix to be strictly partial.
  if (len >= 2 && core::coin(config_.midframe_kill_probability, config_.seed,
                             conn_id, offset, kSaltMidframeKill)) {
    injected(midframe_kills_);
    const std::size_t prefix = std::max<std::size_t>(1, len / 2);
    (void)::send(fd, buf, prefix, flags);
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  if (core::coin(config_.write_stall_probability, config_.seed, conn_id,
                 offset, kSaltWriteStall)) {
    injected(write_stalls_);
    std::this_thread::sleep_for(config_.stall);
    return ::send(fd, buf, len, flags);
  }
  if (core::coin(config_.write_eagain_probability, config_.seed, conn_id,
                 offset, kSaltWriteEagain)) {
    injected(write_eagain_);
    errno = EAGAIN;
    return -1;
  }
  if (len >= 2 &&
      core::coin(config_.partial_write_probability, config_.seed, conn_id,
                 offset, kSaltPartialWrite)) {
    injected(partial_writes_);
    return ::send(fd, buf, std::max<std::size_t>(1, len / 2), flags);
  }
  return ::send(fd, buf, len, flags);
}

ssize_t FaultyTransport::recv(std::uint64_t conn_id, std::uint64_t offset,
                              int fd, void* buf, std::size_t len, int flags) {
  if (!armed_) return ::recv(fd, buf, len, flags);

  if (core::coin(config_.reset_probability, config_.seed, conn_id, offset,
                 kSaltReset)) {
    injected(resets_);
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  if (core::coin(config_.read_stall_probability, config_.seed, conn_id,
                 offset, kSaltReadStall)) {
    injected(read_stalls_);
    std::this_thread::sleep_for(config_.stall);
    return ::recv(fd, buf, len, flags);
  }
  if (len > 7 &&
      core::coin(config_.short_read_probability, config_.seed, conn_id,
                 offset, kSaltShortRead)) {
    injected(short_reads_);
    return ::recv(fd, buf, 7, flags);
  }
  return ::recv(fd, buf, len, flags);
}

NetFaultCounts FaultyTransport::counts() const {
  NetFaultCounts c;
  c.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  c.write_stalls = write_stalls_.load(std::memory_order_relaxed);
  c.write_eagain = write_eagain_.load(std::memory_order_relaxed);
  c.read_stalls = read_stalls_.load(std::memory_order_relaxed);
  c.short_reads = short_reads_.load(std::memory_order_relaxed);
  c.resets = resets_.load(std::memory_order_relaxed);
  c.midframe_kills = midframe_kills_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace sift::net
