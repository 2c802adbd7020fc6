#include "io/framed.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Advances the (pre-inverted) CRC register @p c over @p n bytes.
std::uint32_t sliced_update(std::uint32_t c, const std::uint8_t* p,
                            std::size_t n) noexcept {
  static const CrcTables t = make_crc_tables();
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
  return c;
}

#if defined(__x86_64__)
/// The fold starts from four 16-byte blocks.
constexpr std::size_t kFoldMinBytes = 64;

__m128i load(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x.hi * k.hi ^ x.lo * k.lo ^ next: the 128 bits of x carried k's
/// distance down the stream and added to the block there.
__attribute__((target("pclmul"))) __m128i fold(__m128i x, __m128i k,
                                               __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

/// Advances the register over @p n bytes, n >= 64 and a multiple of 16.
/// The constants are the paper's reflected-domain ones for P = 0x04C11DB7:
/// k1, k2 fold across 512 bits, k3, k4 across 128, k5 takes 96 bits to 64,
/// and P', mu drive the Barrett reduction.
__attribute__((target("pclmul"))) std::uint32_t fold_update(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) noexcept {
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 96 -> 64 bits, then Barrett down to the 32-bit remainder.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_sliced(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept {
  return sliced_update(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^
         0xFFFFFFFFu;
}

bool crc32_fold_supported() noexcept {
#if defined(__x86_64__)
  // PCLMULQDQ is not in the x86-64 baseline (a host can lack it, and
  // emulators often hide it), so this is probed rather than assumed.
  static const bool supported = __builtin_cpu_supports("pclmul") != 0;
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32_folded(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= kFoldMinBytes && crc32_fold_supported()) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = fold_update(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return sliced_update(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  return detail::crc32_folded(data, seed);
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

void FrameDecoder::reserve(std::size_t bytes) {
  if (bytes <= capacity_) return;
  auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
  if (tail_ > head_) {
    std::memcpy(grown.get(), storage_.get() + head_, tail_ - head_);
  }
  tail_ -= head_;
  head_ = 0;
  storage_ = std::move(grown);
  capacity_ = bytes;
}

std::span<std::uint8_t> FrameDecoder::prepare(std::size_t n) {
  // Compact the consumed prefix, so the storage never holds more than one
  // partial frame plus the room asked for. (This is the call that
  // invalidates previously returned payload spans.)
  if (head_ == tail_) {
    head_ = 0;
    tail_ = 0;
  } else if (head_ > 0) {
    std::memmove(storage_.get(), storage_.get() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
  }
  if (capacity_ - tail_ < n) reserve(std::max(tail_ + n, 2 * capacity_));
  return {storage_.get() + tail_, n};
}

void FrameDecoder::commit(std::size_t n) noexcept {
  assert(n <= capacity_ - tail_);
  if (corrupt_) return;  // framing is lost; nothing downstream is usable
  tail_ += n;
  fed_ += n;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (corrupt_) return;
  if (!bytes.empty()) {
    std::memcpy(prepare(bytes.size()).data(), bytes.data(), bytes.size());
  }
  commit(bytes.size());
}

std::optional<std::span<const std::uint8_t>> FrameDecoder::next() noexcept {
  if (corrupt_) return std::nullopt;
  const std::size_t avail = tail_ - head_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* frame = storage_.get() + head_;
  const std::uint32_t len = get_u32_le(frame);
  const std::uint32_t want_crc = get_u32_le(frame + 4);
  if (len > max_payload_ || len > kMaxFramePayload) {
    // A bit-flipped length field must neither provoke a giant buffer nor
    // let the cursor resynchronise on garbage: poison immediately.
    corrupt_ = true;
    return std::nullopt;
  }
  if (avail - kFrameHeaderBytes < len) return std::nullopt;  // need more
  const std::span<const std::uint8_t> payload(frame + kFrameHeaderBytes, len);
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
