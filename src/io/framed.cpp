#include "io/framed.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace sift::io {
namespace {

// Slicing-by-8 tables: t[0] is the classic reflected byte table; t[k][i]
// is the CRC of byte i followed by k zero bytes, so eight lookups advance
// the register over eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32_le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get_u32_le(p) ^ c;
    const std::uint32_t hi = get_u32_le(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::invalid_argument("append_frame: payload exceeds frame bound");
  }
  put_u32_le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (corrupt_) return;  // framing is lost; nothing downstream is usable
  fed_ += bytes.size();
  // Compact the consumed prefix before appending, so the buffer never
  // holds more than one partial frame plus the incoming chunk. (This is
  // the call that invalidates previously returned payload spans.)
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (head_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<std::span<const std::uint8_t>> FrameDecoder::next() noexcept {
  if (corrupt_) return std::nullopt;
  const std::size_t avail = buffer_.size() - head_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::uint32_t len = get_u32_le(buffer_.data() + head_);
  const std::uint32_t want_crc = get_u32_le(buffer_.data() + head_ + 4);
  if (len > max_payload_ || len > kMaxFramePayload) {
    // A bit-flipped length field must neither provoke a giant buffer nor
    // let the cursor resynchronise on garbage: poison immediately.
    corrupt_ = true;
    return std::nullopt;
  }
  if (avail - kFrameHeaderBytes < len) return std::nullopt;  // need more
  const std::span<const std::uint8_t> payload(
      buffer_.data() + head_ + kFrameHeaderBytes, len);
  if (crc32(payload) != want_crc) {
    corrupt_ = true;
    return std::nullopt;
  }
  head_ += kFrameHeaderBytes + len;
  return payload;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return {};
    throw_errno("read_file_bytes: cannot open", path);
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> chunk;
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    bytes.insert(bytes.end(), chunk.data(), chunk.data() + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw_errno("read_file_bytes: read error on", path);
  return bytes;
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("write_file_atomic: cannot open", tmp);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("write_file_atomic: write failed on", tmp);
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("write_file_atomic: fsync failed on", tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("write_file_atomic: rename failed for", path);
  }
  // fsync the directory so the rename survives a power loss too.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace sift::io
