#include "net/client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>

#include "fleet/replay.hpp"

namespace sift::net {

namespace {

/// Flush watermark: large enough to amortise syscalls, small enough that
/// backpressure reaches the pacing loop quickly.
constexpr std::size_t kAutoFlushBytes = 1u << 16;

/// Capped exponential backoff between reconnect attempts.
constexpr std::chrono::milliseconds kBackoffInitial{5};
constexpr std::chrono::milliseconds kBackoffCap{500};

}  // namespace

Client::Client(const std::string& address, bool greet,
               std::uint8_t hello_flags) {
  fd_ = connect_to(parse_address(address));
  if (greet) encoder_.hello(buf_, hello_flags);
}

void Client::send_packet(std::int32_t user_id, const wiot::Packet& packet) {
  encoder_.packet(buf_, user_id, packet);
  if (buf_.size() >= kAutoFlushBytes) flush();
}

void Client::flush() {
  if (buf_.empty()) return;
  write_all(buf_);
  buf_.clear();
}

void Client::send_raw(std::span<const std::uint8_t> bytes) {
  flush();
  write_all(bytes);
}

wire::Stats Client::stats(std::chrono::milliseconds timeout) {
  flush();
  std::vector<std::uint8_t> request;
  encoder_.stats_request(request);
  write_all(request);
  return wire::decode_stats_reply(await_frame(timeout));
}

wire::Cursors Client::cursors(std::int32_t user_id,
                              std::chrono::milliseconds timeout) {
  flush();
  std::vector<std::uint8_t> request;
  encoder_.cursor_request(request, user_id);
  write_all(request);
  return wire::decode_cursor_reply(await_frame(timeout));
}

std::span<const std::uint8_t> Client::await_frame(
    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (const auto payload = decoder_.next()) return *payload;
    if (decoder_.corrupt()) {
      throw wire::Error("client: corrupt reply stream");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) throw wire::Error("client: reply timeout");
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc < 0) {
      if (errno == EINTR) {
        // A signal is not a timeout: count the retry and re-poll against
        // the same deadline.
        ++io_stats_.eintr_retries;
        continue;
      }
      throw wire::Error(std::string("client: poll: ") + std::strerror(errno));
    }
    if (rc == 0) throw wire::Error("client: reply timeout");
    const ssize_t n =
        faults_ ? faults_->recv(conn_id_, rx_offset_, fd_.get(), rx_.data(),
                                rx_.size(), 0)
                : ::recv(fd_.get(), rx_.data(), rx_.size(), 0);
    if (n == 0) throw wire::Error("client: server closed the connection");
    if (n < 0) {
      if (errno == EINTR) {
        ++io_stats_.eintr_retries;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // re-poll
      throw wire::Error(std::string("client: recv: ") + std::strerror(errno));
    }
    rx_offset_ += static_cast<std::uint64_t>(n);
    decoder_.feed({rx_.data(), static_cast<std::size_t>(n)});
    // A read that ends mid-frame is not an error — the loop keeps reading
    // against the deadline — but it is worth counting.
    if (decoder_.pending_bytes() > 0) ++io_stats_.partial_reads;
  }
}

void Client::close() {
  flush();
  fd_.reset();
}

void Client::write_all(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  bool skip_shim_once = false;  // after an injected EAGAIN: same offset,
                                // same coin — bypass once so retries progress
  while (off < bytes.size()) {
    const std::size_t len = bytes.size() - off;
    const ssize_t n =
        (faults_ && !skip_shim_once)
            ? faults_->send(conn_id_, tx_offset_, fd_.get(), bytes.data() + off,
                            len, MSG_NOSIGNAL)
            : ::send(fd_.get(), bytes.data() + off, len, MSG_NOSIGNAL);
    skip_shim_once = false;
    if (n >= 0) {
      if (static_cast<std::size_t>(n) < len) ++io_stats_.partial_writes;
      off += static_cast<std::size_t>(n);
      tx_offset_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (errno == EINTR) {
      ++io_stats_.eintr_retries;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      skip_shim_once = true;  // blocking socket: only the shim says EAGAIN
      continue;
    }
    throw wire::Error(std::string("client: send: ") + std::strerror(errno));
  }
}

ResumeResult send_streams_resuming(
    const ResumeConfig& config,
    const std::vector<std::pair<std::int32_t, const std::vector<wiot::Packet>*>>&
        sessions) {
  ResumeResult result;
  if (sessions.empty()) {
    result.completed = true;
    return result;
  }
  // Next packet index to send per session. A reconnect re-derives these
  // from the server's durable cursors: usually a small rewind (the unacked
  // in-flight tail gets re-sent and shed server-side), occasionally a
  // fast-forward (another path already delivered further than we knew).
  std::vector<std::size_t> pos(sessions.size(), 0);
  auto backoff = kBackoffInitial;
  const auto give_up = std::chrono::steady_clock::now() + config.give_up;
  std::uint64_t attempt = 0;
  while (!result.completed) {
    try {
      // Each attempt gets its own fault-schedule key: replaying the exact
      // byte offsets of a failed attempt must not replay its faults, or a
      // deterministic shim would pin the loop on one mid-frame kill.
      const std::uint64_t conn_key = config.conn_id * 0x9e3779b9ULL + attempt;
      Client client(config.address, /*greet=*/true,
                    attempt == 0 ? std::uint8_t{0} : wire::kHelloFlagReconnect);
      if (config.faults) client.set_faults(config.faults, conn_key);
      if (attempt > 0) {
        ++result.reconnects;
        for (std::size_t s = 0; s < sessions.size(); ++s) {
          const wire::Cursors cursors = client.cursors(sessions[s].first);
          ++result.resumes;
          const std::vector<wiot::Packet>& stream = *sessions[s].second;
          std::size_t p = 0;
          while (p < stream.size()) {
            const std::uint32_t cursor =
                stream[p].kind == wiot::ChannelKind::kEcg ? cursors.ecg
                                                          : cursors.abp;
            if (stream[p].seq >= cursor) break;
            ++p;
          }
          if (p > pos[s]) result.packets_skipped += p - pos[s];
          pos[s] = p;
        }
      }
      backoff = kBackoffInitial;  // a working wire resets the clock
      const auto t0 = std::chrono::steady_clock::now();
      bool more = true;
      for (std::size_t step = 0; more; ++step) {
        more = false;
        for (std::size_t s = 0; s < sessions.size(); ++s) {
          if (pos[s] >= sessions[s].second->size()) continue;
          more = true;
          client.send_packet(sessions[s].first, (*sessions[s].second)[pos[s]]);
          ++pos[s];
          ++result.packets_sent;
        }
        // Flush per step: bounds the unacked in-flight tail to one step's
        // packets (a reconnect then rewinds at most that far), and keeps
        // the wire pattern — many small sends — honest under a fault shim.
        client.flush();
        if (config.rate_hz > 0) {
          const auto due =
              t0 + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(step + 1) / config.rate_hz));
          std::this_thread::sleep_until(due);
        }
      }
      // Delivery confirmation: "sent" is not "consumed" — the gateway can
      // die with this stream's tail still in its rings, and TCP's ack says
      // nothing about that. Poll the cursors until every channel's frontier
      // covers the stream; a gateway that died meanwhile throws here and
      // the reconnect loop re-sends whatever the fleet never consumed.
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        std::uint32_t want_ecg = 0, want_abp = 0;
        for (const wiot::Packet& p : *sessions[s].second) {
          std::uint32_t& want =
              p.kind == wiot::ChannelKind::kEcg ? want_ecg : want_abp;
          want = std::max(want, p.seq + 1);
        }
        for (;;) {
          const wire::Cursors cursors = client.cursors(sessions[s].first);
          if (cursors.ecg >= want_ecg && cursors.abp >= want_abp) break;
          if (std::chrono::steady_clock::now() >= give_up) {
            throw wire::Error("resume: delivery confirmation timed out");
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      client.close();
      result.completed = true;
    } catch (const std::exception&) {
      ++attempt;
      if (std::chrono::steady_clock::now() >= give_up) break;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(kBackoffCap, backoff * 2);
    }
  }
  return result;
}

DriveResult drive_load(const DriveConfig& config) {
  fleet::ReplayConfig replay;
  replay.sessions = config.users;
  replay.seconds = config.seconds;
  replay.distinct_users = config.distinct_users;
  replay.samples_per_packet = config.samples_per_packet;
  replay.seed = config.seed;
  return drive_load(config, fleet::build_session_streams(replay));
}

DriveResult drive_load(const DriveConfig& config,
                       const std::vector<std::vector<wiot::Packet>>& streams) {
  DriveResult result;
  if (streams.empty()) return result;

  const bool resuming = config.resume || config.faults != nullptr;

  // The observer stays on a clean wire (no shim), but a chaos-armed server
  // can still reset it — reconnect and retry instead of failing the drive.
  std::optional<Client> observer;
  auto safe_stats = [&]() -> std::optional<wire::Stats> {
    try {
      if (!observer) observer.emplace(config.address);
      return observer->stats();
    } catch (const std::exception&) {
      observer.reset();
      return std::nullopt;
    }
  };
  if (resuming) {
    bool got = false;
    for (int i = 0; i < 250 && !got; ++i) {
      if (const auto s = safe_stats()) {
        result.before = *s;
        got = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (!got) return result;  // server unreachable; nothing to drive
  } else {
    observer.emplace(config.address);
    result.before = observer->stats();
  }

  const std::size_t connections =
      std::max<std::size_t>(1, std::min(config.connections, streams.size()));
  std::atomic<std::uint64_t> sent{0};
  std::vector<ResumeResult> resumed(connections);
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> senders;
    senders.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      if (resuming) {
        senders.emplace_back([&, c] {
          ResumeConfig resume;
          resume.address = config.address;
          resume.rate_hz = config.rate_hz;
          resume.faults = config.faults;
          resume.conn_id = c + 1;
          resume.give_up = config.settle_timeout;
          std::vector<
              std::pair<std::int32_t, const std::vector<wiot::Packet>*>>
              sessions;
          for (std::size_t s = c; s < streams.size(); s += connections) {
            sessions.emplace_back(static_cast<std::int32_t>(s), &streams[s]);
          }
          resumed[c] = send_streams_resuming(resume, sessions);
          sent.fetch_add(resumed[c].packets_sent, std::memory_order_relaxed);
        });
        continue;
      }
      senders.emplace_back([&, c] {
        Client client(config.address);
        std::uint64_t my_sent = 0;
        const auto t0 = std::chrono::steady_clock::now();
        // Time-major over this connection's sessions: packet 0 of each,
        // then packet 1, ... — concurrent wearers, per-user FIFO intact.
        bool more = true;
        for (std::size_t step = 0; more; ++step) {
          more = false;
          for (std::size_t s = c; s < streams.size(); s += connections) {
            if (step >= streams[s].size()) continue;
            more = true;
            client.send_packet(static_cast<std::int32_t>(s),
                               streams[s][step]);
            ++my_sent;
          }
          if (config.rate_hz > 0) {
            const auto due =
                t0 + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(step + 1) / config.rate_hz));
            std::this_thread::sleep_until(due);
          }
        }
        client.close();
        sent.fetch_add(my_sent, std::memory_order_relaxed);
      });
    }
  }
  const auto sent_at = std::chrono::steady_clock::now();
  result.packets_sent = sent.load();
  result.send_seconds =
      std::chrono::duration<double>(sent_at - start).count();

  bool all_completed = true;
  if (resuming) {
    for (const ResumeResult& r : resumed) {
      result.reconnects += r.reconnects;
      result.resumes += r.resumes;
      result.packets_skipped += r.packets_skipped;
      all_completed = all_completed && r.completed;
    }
  }

  const auto deadline = sent_at + config.settle_timeout;
  std::uint64_t last_windows = ~std::uint64_t{0};
  if (resuming) {
    // Under chaos "accounted >= sent" is meaningless — re-sent overlap
    // inflates accepts, cursor skips deflate them. Settled means: every
    // stream fully delivered, queues empty, and the window count stable
    // across three consecutive polls.
    int stable = 0;
    for (;;) {
      if (const auto now = safe_stats()) {
        result.after = *now;
        if (all_completed && now->queue_depth == 0 &&
            now->windows_classified == last_windows) {
          if (++stable >= 3) {
            result.settled = true;
            break;
          }
        } else {
          stable = 0;
        }
        last_windows = now->windows_classified;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  } else {
    // Settle: everything sent must be accounted for (accepted or
    // rejected), the shard queues empty, and the window count stable
    // across two polls (in-flight batches finish between them).
    for (;;) {
      const wire::Stats now = observer->stats();
      const std::uint64_t accounted =
          (now.packets_accepted - result.before.packets_accepted) +
          (now.packets_rejected - result.before.packets_rejected);
      result.after = now;
      if (accounted >= result.packets_sent && now.queue_depth == 0 &&
          now.windows_classified == last_windows) {
        result.settled = true;
        break;
      }
      last_windows = now.windows_classified;
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  result.total_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return result;
}

}  // namespace sift::net
