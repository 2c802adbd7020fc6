#include "fleet/durable/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fleet/thread_name.hpp"
#include "io/framed.hpp"

namespace sift::fleet::durable {
namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("journal: write failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

void VerdictRecord::encode(io::StateWriter& w) const {
  w.i32(user_id);
  w.u64(seq);
  w.f64(decision_value);
  w.u8(tier);
  w.u8(flags);
  w.u32(faults_total);
  w.u32(quarantine_dropped);
}

VerdictRecord VerdictRecord::decode(io::StateReader& r) {
  VerdictRecord rec;
  rec.user_id = r.i32();
  rec.seq = r.u64();
  rec.decision_value = r.f64();
  rec.tier = r.u8();
  rec.flags = r.u8();
  rec.faults_total = r.u32();
  rec.quarantine_dropped = r.u32();
  return rec;
}

Journal::Journal(std::string path, JournalConfig config)
    : path_(std::move(path)), config_(config) {
  if (config_.buffer_records == 0) {
    throw std::invalid_argument("Journal: buffer_records must be positive");
  }
  // Find the valid prefix left by the previous incarnation; anything past
  // the last intact frame is a torn write from a crash and gets cut.
  {
    const auto bytes = io::read_file_bytes(path_);
    io::FrameReader reader(bytes);
    while (reader.next()) {
    }
    recovered_valid_ = reader.valid_bytes();
    recovered_torn_ = reader.torn();
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("journal: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(recovered_valid_)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error("journal: cannot reset " + path_ + ": " +
                             std::strerror(err));
  }
  durable_file_bytes_.store(recovered_valid_, std::memory_order_relaxed);

  ring_.resize(config_.buffer_records);
  payload_scratch_.reserve(kVerdictRecordBytes * 2);
  batch_scratch_.reserve(config_.buffer_records *
                         (kVerdictRecordBytes + io::kFrameHeaderBytes));
  flusher_ = std::thread([this] {
    name_this_thread("sift-journal");
    flusher_loop();
  });
}

Journal::~Journal() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t Journal::appends_relaxed() const noexcept {
  std::lock_guard lock(mu_);
  return appended_total_;
}

void Journal::append(const VerdictRecord& record) {
  std::unique_lock lock(mu_);
  if (dead_ || stop_) return;
  space_cv_.wait(lock,
                 [&] { return pending_ < ring_.size() || dead_ || stop_; });
  if (dead_ || stop_) return;
  ring_[(ring_head_ + pending_) % ring_.size()] = record;
  ++pending_;
  ++appended_total_;
  if (pending_ == ring_.size()) work_cv_.notify_one();
}

void Journal::flush() {
  std::unique_lock lock(mu_);
  if (dead_) return;
  const std::uint64_t target = appended_total_;
  ++flush_waiters_;
  work_cv_.notify_one();
  durable_cv_.wait(lock, [&] { return durable_total_ >= target || dead_; });
  --flush_waiters_;
}

void Journal::flusher_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait_for(lock, config_.flush_interval, [&] {
      return stop_ || dead_ || pending_ == ring_.size() ||
             (flush_waiters_ > 0 && pending_ > 0);
    });
    if (dead_) return;  // crash: pending records are lost by design
    if (pending_ == 0) {
      if (stop_) return;
      durable_cv_.notify_all();  // flush() callers with nothing pending
      continue;
    }
    // Stage the whole batch: serialize under the lock (cheap, in-memory,
    // reuses reserved scratch), then release it for the slow disk I/O so
    // appenders keep filling the next group while this one commits.
    const std::size_t n = pending_;
    batch_scratch_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      payload_scratch_.clear();
      io::StateWriter w(payload_scratch_);
      ring_[(ring_head_ + i) % ring_.size()].encode(w);
      io::append_frame(batch_scratch_, payload_scratch_);
    }
    ring_head_ = (ring_head_ + n) % ring_.size();
    pending_ = 0;
    space_cv_.notify_all();
    lock.unlock();
    write_all(fd_, batch_scratch_.data(), batch_scratch_.size());
    if (config_.fsync_on_flush) ::fsync(fd_);
    lock.lock();
    durable_total_ += n;
    durable_file_bytes_.fetch_add(batch_scratch_.size(),
                                  std::memory_order_relaxed);
    bytes_written_.fetch_add(batch_scratch_.size(), std::memory_order_relaxed);
    flushes_.fetch_add(1, std::memory_order_relaxed);
    durable_cv_.notify_all();
    if (stop_ && pending_ == 0) return;
  }
}

Journal::ScanResult Journal::scan(const std::string& path) {
  ScanResult out;
  const auto bytes = io::read_file_bytes(path);
  io::FrameReader reader(bytes);
  while (auto payload = reader.next()) {
    if (payload->size() != kVerdictRecordBytes) {
      // CRC-valid but wrong shape: treat like a torn tail — stop trusting
      // the file here rather than misinterpret bytes as verdicts.
      out.torn = true;
      return out;
    }
    io::StateReader r(*payload);
    out.records.push_back(VerdictRecord::decode(r));
    out.valid_bytes = reader.valid_bytes();
  }
  out.valid_bytes = reader.valid_bytes();
  out.torn = reader.torn();
  return out;
}

void Journal::simulate_crash(std::size_t cut_tail_bytes,
                             std::size_t junk_bytes) {
  {
    std::lock_guard lock(mu_);
    if (dead_) return;
    dead_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  durable_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();

  std::lock_guard lock(mu_);
  const std::uint64_t on_disk =
      durable_file_bytes_.load(std::memory_order_relaxed);
  const std::uint64_t keep =
      on_disk > cut_tail_bytes ? on_disk - cut_tail_bytes : 0;
  (void)::ftruncate(fd_, static_cast<off_t>(keep));
  if (junk_bytes > 0) {
    (void)::lseek(fd_, 0, SEEK_END);
    std::vector<std::uint8_t> junk(junk_bytes, 0xA5);
    write_all(fd_, junk.data(), junk.size());
  }
  ::close(fd_);
  fd_ = -1;
}

}  // namespace sift::fleet::durable
