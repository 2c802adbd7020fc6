// Versioned binary state serialization for checkpoints.
//
// StateWriter/StateReader are a tiny explicit little-endian codec: every
// field is written by width (no struct memcpy, no padding, no host
// endianness in the file; the bulk f64s() copies memory only where the
// host is little-endian already), and readers fail with a typed error
// instead of reading past the end — which is exactly the property a
// checkpoint loader needs when handed a truncated or bit-flipped file that
// already slipped past the frame CRC (it cannot, but defense in depth is
// free here).
//
// Header-only on purpose: wiot::BaseStation exports its state through this
// codec and wiot must not link against sift_io.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sift::io {

/// Appends explicit little-endian fields to a caller-owned byte buffer.
class StateWriter {
 public:
  explicit StateWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Same bytes as one f64() per element; a single copy on little-endian
  /// hosts, where the in-memory layout already is the wire layout.
  void f64s(std::span<const double> v) {
    if constexpr (std::endian::native == std::endian::little) {
      const auto* b = reinterpret_cast<const std::uint8_t*>(v.data());
      out_.insert(out_.end(), b, b + v.size_bytes());
    } else {
      for (const double d : v) f64(d);
    }
  }

  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void str(const std::string& s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

 private:
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t>& out_;
};

/// Mirror of StateWriter. Every read is bounds-checked; underflow throws
/// std::runtime_error so a corrupt checkpoint is a clean load failure.
class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Fills @p out as one f64() per element would, bounds-checked once up
  /// front: a short buffer throws before any element is written.
  void f64s(std::span<double> out) {
    require(out.size_bytes());
    if constexpr (std::endian::native == std::endian::little) {
      if (out.empty()) return;  // memcpy wants non-null pointers
      std::memcpy(out.data(), bytes_.data() + cursor_, out.size_bytes());
      cursor_ += out.size_bytes();
    } else {
      for (double& d : out) d = f64();
    }
  }

  std::span<const std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    require(n);
    const auto out = bytes_.subspan(cursor_, n);
    cursor_ += n;
    return out;
  }
  std::string str() {
    const auto b = bytes();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  std::size_t remaining() const noexcept { return bytes_.size() - cursor_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (bytes_.size() - cursor_ < n) {
      throw std::runtime_error("state: truncated (wanted " +
                               std::to_string(n) + " bytes, have " +
                               std::to_string(bytes_.size() - cursor_) + ")");
    }
  }
  std::uint64_t get(int width) {
    require(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[cursor_ + i]) << (8 * i);
    }
    cursor_ += static_cast<std::size_t>(width);
    return v;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace sift::io
