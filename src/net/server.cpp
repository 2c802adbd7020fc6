#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace sift::net {

namespace {

// epoll user-data tags for the two non-connection descriptors; connection
// events carry their slot index.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;
constexpr int kListenBacklog = 128;
/// Per-frame payload bound on the listener (tighter than the io-layer
/// kMaxFramePayload; a sensor packet is ~1.5 KB).
constexpr std::size_t kMaxPayload = 1u << 16;
/// Bytes handed to one read() call.
constexpr std::size_t kReadChunk = 1u << 15;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("net: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

NetServer::NetServer(fleet::FleetEngine& engine, NetServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.max_connections == 0) {
    throw std::invalid_argument("net: max_connections > 0");
  }
  const ParsedAddress parsed = parse_address(config_.listen);
  listen_ = listen_on(parsed, kListenBacklog);
  set_nonblocking(listen_.get());
  // Re-read the bound address so tcp:...:0 reports its ephemeral port.
  address_ = parsed.is_unix ? to_string(parsed) : local_address(listen_.get());

  epoll_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) throw_errno("epoll_create1");
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) throw_errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listen_.get(), &ev) != 0) {
    throw_errno("epoll_ctl(listen)");
  }
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    throw_errno("epoll_ctl(wake)");
  }

  slots_.reserve(config_.max_connections);
  free_slots_.reserve(config_.max_connections);
  for (std::size_t i = 0; i < config_.max_connections; ++i) {
    slots_.emplace_back(kMaxPayload);
    slots_[i].slot = i;
  }
  // Slots are handed out back-to-front; push in reverse so connection 0
  // lands in slot 0 (cosmetic, but it makes traces readable).
  for (std::size_t i = config_.max_connections; i-- > 0;) {
    free_slots_.push_back(i);
  }
  scratch_.resize(kReadChunk);

  auto& metrics = engine_.metrics();
  accepted_ = &metrics.counter("net.connections_accepted");
  closed_ = &metrics.counter("net.connections_closed");
  refused_ = &metrics.counter("net.connections_refused");
  frames_in_ = &metrics.counter("net.frames_in");
  bytes_in_ = &metrics.counter("net.bytes_in");
  packets_in_ = &metrics.counter("net.packets_in");
  streamed_ = &metrics.counter("net.packets_streamed");
  stalls_ = &metrics.counter("net.backpressure_stalls");
  protocol_errors_ = &metrics.counter("net.protocol_errors");
  idle_timeouts_ = &metrics.counter("net.idle_timeouts");
  abandoned_ = &metrics.counter("net.packets_abandoned");
  fleet_rejected_ = &metrics.counter("fleet.packets_rejected");
  reconnects_ = &metrics.counter("net.reconnects");
  resumes_ = &metrics.counter("net.resumes");
  stall_reaps_ = &metrics.counter("net.stall_reaps");
  rate_limited_ = &metrics.counter("net.rate_limited");
  accept_deferrals_ = &metrics.counter("net.accept_deferrals");
  open_gauge_ = &metrics.gauge("net.connections_open");
  // Server-side injections surface in the same snapshot as everything else;
  // the counter exists (at zero) even without a shim so dashboards and the
  // serve final-stats line never miss the key.
  fleet::Counter* faults_injected = &metrics.counter("net.faults_injected");
  if (config_.faults) config_.faults->attach_counter(faults_injected);

  next_deadline_scan_ = std::chrono::steady_clock::now();
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  thread_ = std::jthread([this] { loop(); });
}

void NetServer::loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    poll_once(std::chrono::milliseconds(100));
  }
}

void NetServer::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  if (!flushed_) {
    flushed_ = true;
    shutdown_flush();
  }
}

void NetServer::halt() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  if (flushed_) return;
  flushed_ = true;
  // Crash semantics: drop everything in flight. Parked packets are counted
  // abandoned by close_conn; decoded-but-undelivered frames simply vanish,
  // exactly as they would under SIGKILL.
  for (Connection& conn : slots_) {
    if (conn.in_use) close_conn(conn);
  }
  listen_.reset();
  const ParsedAddress parsed = parse_address(config_.listen);
  if (parsed.is_unix) ::unlink(parsed.path.c_str());
}

void NetServer::poll_once(std::chrono::milliseconds max_wait) {
  if (flushed_) return;
  int timeout_ms = static_cast<int>(
      std::clamp<std::chrono::milliseconds::rep>(max_wait.count(), 0, 3600000));
  // Gated connections are retried on a short tick: the engine drains in
  // microseconds once a queue slot frees, so the stall window should be
  // bounded by ~1 ms, not by the idle poll period.
  if (stalled_ > 0) timeout_ms = std::min(timeout_ms, 1);
  if (config_.idle_timeout.count() > 0) {
    timeout_ms = std::min<int>(
        timeout_ms,
        static_cast<int>(std::max<std::int64_t>(
            1, config_.idle_timeout.count() / 4)));
  }
  if (const auto stall = stall_deadline(); stall.count() > 0) {
    timeout_ms = std::min<int>(
        timeout_ms,
        static_cast<int>(std::max<std::int64_t>(1, stall.count() / 4)));
  }

  std::array<epoll_event, 64> events;
  const int n =
      ::epoll_wait(epoll_.get(), events.data(),
                   static_cast<int>(events.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return;
    throw_errno("epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = events[static_cast<std::size_t>(i)];
    if (ev.data.u64 == kWakeTag) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_.get(), &drained, sizeof(drained));
      continue;
    }
    if (ev.data.u64 == kListenTag) {
      accept_ready();
      continue;
    }
    Connection& conn = slots_[static_cast<std::size_t>(ev.data.u64)];
    if (!conn.in_use) continue;
    if (ev.events & EPOLLOUT) {
      if (!flush_out(conn)) {
        close_conn(conn);
        continue;
      }
    }
    if (ev.events & EPOLLIN) {
      pump(conn);
    } else if ((ev.events & (EPOLLERR | EPOLLHUP)) && !conn.gated) {
      // No readable data and the peer is gone. A gated connection is left
      // for the retry path, which still owns a parked packet and possibly
      // unread kernel bytes.
      close_conn(conn);
    }
  }

  if (stalled_ > 0) retry_stalled();
  if (config_.idle_timeout.count() > 0 || stall_deadline().count() > 0) {
    scan_deadlines();
  }
}

void NetServer::accept_ready() {
  for (std::size_t accepted = 0;;) {
    if (config_.accept_burst > 0 && accepted >= config_.accept_burst) {
      // Yield back to the loop mid-flood: established connections get
      // their readiness serviced before the next accept batch. The
      // listener is level-triggered, so the backlog re-fires immediately.
      accept_deferrals_->add();
      return;
    }
    const int fd =
        ::accept4(listen_.get(), nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN, or a transient accept failure: retry next cycle
    }
    ++accepted;
    if (free_slots_.empty()) {
      ::close(fd);
      refused_->add();
      continue;
    }
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    Connection& conn = slots_[slot];
    conn.fd = Fd(fd);
    conn.in_use = true;
    conn.has_pending = false;
    conn.greeted = false;
    conn.gated = false;
    conn.saw_eof = false;
    conn.want_write = false;
    conn.decoder.reset();
    // Enough for the largest frame plus one read chunk of trailing bytes:
    // a no-op after the slot's first connection, so steady-state accepts
    // and decodes allocate nothing.
    conn.decoder.reserve(kMaxPayload + io::kFrameHeaderBytes + kReadChunk);
    conn.out.clear();
    conn.out_head = 0;
    conn.last_activity = std::chrono::steady_clock::now();
    conn.id = next_conn_id_++;
    conn.rx_offset = 0;
    conn.tx_offset = 0;
    conn.tokens = config_.rate_limit_pps;
    conn.token_refill = conn.last_activity;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = slot;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn.fd.get(), &ev) != 0) {
      conn.fd.reset();
      conn.in_use = false;
      free_slots_.push_back(slot);
      refused_->add();
      continue;
    }
    accepted_->add();
    open_count_.fetch_add(1, std::memory_order_relaxed);
    open_gauge_->add(1);
  }
}

void NetServer::pump(Connection& conn) {
  for (;;) {
    if (conn.has_pending && !retry_pending(conn)) break;
    // Drain every complete frame already buffered before reading more.
    for (;;) {
      const auto payload = conn.decoder.next();
      if (!payload) {
        if (conn.decoder.corrupt()) {
          protocol_errors_->add();
          close_conn(conn);
          return;
        }
        break;
      }
      const FrameAction action = on_frame(conn, *payload);
      if (action == FrameAction::kClose) {
        close_conn(conn);
        return;
      }
      if (action == FrameAction::kStall) break;
    }
    if (conn.has_pending) break;  // backpressure: gate, stop reading
    if (conn.saw_eof) {
      // Every decodable frame was dispatched; trailing bytes are a
      // mid-frame disconnect, not worth keeping the slot for.
      close_conn(conn);
      return;
    }
    const ssize_t n =
        config_.faults
            ? config_.faults->recv(conn.id, conn.rx_offset, conn.fd.get(),
                                   scratch_.data(), scratch_.size(), 0)
            : ::recv(conn.fd.get(), scratch_.data(), scratch_.size(), 0);
    if (n > 0) {
      conn.rx_offset += static_cast<std::uint64_t>(n);
      bytes_in_->add(static_cast<std::uint64_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      conn.decoder.feed({scratch_.data(), static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      conn.saw_eof = true;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(conn);  // ECONNRESET and friends
    return;
  }
  set_gated(conn, conn.has_pending);
}

NetServer::FrameAction NetServer::on_frame(
    Connection& conn, std::span<const std::uint8_t> payload) {
  frames_in_->add();
  try {
    switch (wire::message_type(payload)) {
      case wire::MsgType::kHello: {
        const wire::Hello hello = wire::decode_hello(payload);
        if (hello.version != wire::kProtocolVersion) {
          protocol_errors_->add();
          return FrameAction::kClose;
        }
        // Count the reconnect announcement only on the connection's first
        // hello — a mid-stream repeat is harmless but not a new reconnect.
        if (!conn.greeted && (hello.flags & wire::kHelloFlagReconnect) != 0) {
          reconnects_->add();
        }
        conn.greeted = true;
        return FrameAction::kContinue;
      }
      case wire::MsgType::kPacket: {
        if (!conn.greeted) {
          protocol_errors_->add();
          return FrameAction::kClose;
        }
        const std::int32_t user = wire::decode_packet(payload, conn.packet);
        packets_in_->add();
        if (config_.rate_limit_pps > 0 && !take_token(conn)) {
          // Shed after decode (the stream stays framed) and make the flood
          // expensive: each over-rate packet walks the wearer's session
          // toward the anti-replay quarantine.
          rate_limited_->add();
          engine_.note_suspicion(user);
          return FrameAction::kContinue;
        }
        return offer(conn, user);
      }
      case wire::MsgType::kStatsRequest: {
        if (!conn.greeted || payload.size() != 1) {
          protocol_errors_->add();
          return FrameAction::kClose;
        }
        send_stats(conn);
        return conn.in_use ? FrameAction::kContinue : FrameAction::kClose;
      }
      case wire::MsgType::kCursorRequest: {
        if (!conn.greeted) {
          protocol_errors_->add();
          return FrameAction::kClose;
        }
        send_cursors(conn, wire::decode_cursor_request(payload));
        return conn.in_use ? FrameAction::kContinue : FrameAction::kClose;
      }
      case wire::MsgType::kStatsReply:
      case wire::MsgType::kCursorReply:
        break;  // client messages; the server never accepts them
    }
  } catch (const wire::Error&) {
    // fall through to the protocol-error close
  }
  protocol_errors_->add();
  return FrameAction::kClose;
}

NetServer::FrameAction NetServer::offer(Connection& conn,
                                        std::int32_t user_id) {
  switch (engine_.try_ingest(user_id, conn.packet)) {
    case fleet::IngestStatus::kAccepted:
      streamed_->add();
      return FrameAction::kContinue;
    case fleet::IngestStatus::kInvalid:
    case fleet::IngestStatus::kClosed:
      // Counted by the engine (fleet.packets_rejected / ingest_rejected);
      // the buffers stay in conn.packet for the next parse.
      return FrameAction::kContinue;
    case fleet::IngestStatus::kWouldBlock:
      conn.has_pending = true;
      conn.pending_user = user_id;
      stalls_->add();
      return FrameAction::kStall;
  }
  return FrameAction::kClose;  // unreachable
}

bool NetServer::retry_pending(Connection& conn) {
  const fleet::IngestStatus status =
      engine_.try_ingest(conn.pending_user, conn.packet);
  if (status == fleet::IngestStatus::kWouldBlock) return false;
  if (status == fleet::IngestStatus::kAccepted) streamed_->add();
  conn.has_pending = false;
  conn.last_activity = std::chrono::steady_clock::now();
  return true;
}

void NetServer::retry_stalled() {
  for (std::size_t slot = 0; slot < slots_.size() && stalled_ > 0; ++slot) {
    Connection& conn = slots_[slot];
    if (conn.in_use && conn.gated) pump(conn);
  }
}

std::chrono::milliseconds NetServer::stall_deadline() const noexcept {
  if (config_.stall_timeout.count() > 0) return config_.stall_timeout;
  // A stall is not idleness — the peer (or a hot shard) may legitimately
  // need time — but it is not immunity either: default to 4× the idle
  // deadline so a peer that never drains cannot park a slot forever.
  if (config_.idle_timeout.count() > 0) return config_.idle_timeout * 4;
  return std::chrono::milliseconds{0};
}

void NetServer::scan_deadlines() {
  const auto now = std::chrono::steady_clock::now();
  if (now < next_deadline_scan_) return;
  auto cadence = std::chrono::milliseconds::max();
  if (config_.idle_timeout.count() > 0) cadence = config_.idle_timeout / 4;
  if (const auto stall = stall_deadline(); stall.count() > 0) {
    cadence = std::min(cadence, stall / 4);
  }
  next_deadline_scan_ =
      now + std::max<std::chrono::milliseconds>(std::chrono::milliseconds(1),
                                                cadence);
  const auto stall = stall_deadline();
  for (Connection& conn : slots_) {
    if (!conn.in_use) continue;
    const auto quiet = now - conn.last_activity;
    if (conn.has_pending || conn.want_write) {
      // Stalled: a parked would-block packet, or a reply the peer refuses
      // to drain. retry_pending/flush_out refresh last_activity on every
      // inch of progress, so only a *stuck* stall ages past the deadline.
      if (stall.count() > 0 && quiet >= stall) {
        stall_reaps_->add();
        close_conn(conn);  // conserves the parked packet in net.packets_abandoned
      }
      continue;
    }
    if (config_.idle_timeout.count() > 0 && quiet >= config_.idle_timeout) {
      idle_timeouts_->add();
      close_conn(conn);
    }
  }
}

bool NetServer::take_token(Connection& conn) {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - conn.token_refill).count();
  conn.token_refill = now;
  conn.tokens = std::min(config_.rate_limit_pps,
                         conn.tokens + elapsed * config_.rate_limit_pps);
  if (conn.tokens < 1.0) return false;
  conn.tokens -= 1.0;
  return true;
}

void NetServer::send_stats(Connection& conn) {
  wire::Stats stats;
  stats.frames_in = frames_in_->value();
  stats.packets_offered = packets_in_->value();
  stats.packets_accepted = streamed_->value();
  stats.packets_rejected = fleet_rejected_->value();
  stats.queue_depth = engine_.queue_depth();
  stats.windows_classified = engine_.windows_classified();
  stats.alerts = engine_.alerts();
  stats.connections_open = open_count_.load(std::memory_order_relaxed);
  encoder_.stats_reply(conn.out, stats);
  if (!flush_out(conn)) close_conn(conn);
}

void NetServer::send_cursors(Connection& conn, std::int32_t user_id) {
  wire::Cursors cursors;
  cursors.user_id = user_id;
  const fleet::SessionCursors resumed = engine_.cursors_for_resume(user_id);
  cursors.ecg = resumed.ecg;
  cursors.abp = resumed.abp;
  resumes_->add();
  encoder_.cursor_reply(conn.out, cursors);
  if (!flush_out(conn)) close_conn(conn);
}

bool NetServer::flush_out(Connection& conn) {
  while (conn.out_head < conn.out.size()) {
    const std::uint8_t* data = conn.out.data() + conn.out_head;
    const std::size_t len = conn.out.size() - conn.out_head;
    const ssize_t n =
        config_.faults
            ? config_.faults->send(conn.id, conn.tx_offset, conn.fd.get(),
                                   data, len, MSG_NOSIGNAL)
            : ::send(conn.fd.get(), data, len, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.out_head += static_cast<std::size_t>(n);
      conn.tx_offset += static_cast<std::uint64_t>(n);
      if (n > 0) conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  const bool drained = conn.out_head == conn.out.size();
  if (drained) {
    conn.out.clear();
    conn.out_head = 0;
  }
  if (conn.want_write == drained) {
    conn.want_write = !drained;
    update_epoll(conn);
  }
  return true;
}

void NetServer::set_gated(Connection& conn, bool gate) {
  if (!conn.in_use || conn.gated == gate) return;
  conn.gated = gate;
  stalled_ += gate ? 1 : -1;
  update_epoll(conn);
}

void NetServer::update_epoll(Connection& conn) {
  epoll_event ev{};
  ev.events = (conn.gated ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn.slot;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void NetServer::close_conn(Connection& conn) {
  if (!conn.in_use) return;
  if (conn.gated) --stalled_;
  if (conn.has_pending) {
    abandoned_->add();
    conn.has_pending = false;
  }
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn.fd.get(), nullptr);
  conn.fd.reset();
  conn.in_use = false;
  conn.gated = false;
  free_slots_.push_back(conn.slot);
  closed_->add();
  open_count_.fetch_sub(1, std::memory_order_relaxed);
  open_gauge_->add(-1);
}

void NetServer::shutdown_flush() {
  // The loop is no longer running (joined, or never started): this thread
  // owns every connection. Deliver what the kernel already acked to the
  // senders — the parked packet first, then every complete frame still in
  // the decoder — through the BLOCKING ingest path, so a graceful stop is
  // lossless under kBlock no matter how backed up the shards are.
  for (Connection& conn : slots_) {
    if (!conn.in_use) continue;
    if (conn.has_pending) {
      if (engine_.ingest(conn.pending_user, std::move(conn.packet))) {
        streamed_->add();
      }
      conn.has_pending = false;
    }
    for (;;) {
      const auto payload = conn.decoder.next();
      if (!payload) break;
      frames_in_->add();
      try {
        if (wire::message_type(*payload) != wire::MsgType::kPacket ||
            !conn.greeted) {
          continue;  // stats/hello frames need no flushing
        }
        const std::int32_t user = wire::decode_packet(*payload, conn.packet);
        packets_in_->add();
        if (engine_.ingest(user, std::move(conn.packet))) streamed_->add();
      } catch (const wire::Error&) {
        protocol_errors_->add();
        break;
      }
    }
    close_conn(conn);
  }
  listen_.reset();
  const ParsedAddress parsed = parse_address(config_.listen);
  if (parsed.is_unix) ::unlink(parsed.path.c_str());
}

}  // namespace sift::net
