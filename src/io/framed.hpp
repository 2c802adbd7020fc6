// CRC32-framed, length-prefixed binary records — the on-disk grammar of
// the fleet's durability layer (write-ahead journal and checkpoints).
//
// A frame is:
//
//   [u32 payload length][u32 CRC-32 of payload][payload bytes]
//
// both integers little-endian. The format is deliberately dumb: a reader
// can always decide "is the next frame intact?" from the header alone, so
// a file torn mid-write (process killed between write() and fsync()) is
// recovered by scanning frames until the first one that is truncated or
// fails its CRC — everything before that point is trustworthy, everything
// after is discarded. That stop-at-last-valid-frame contract is what makes
// append-only journals crash-consistent without any out-of-band metadata.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace sift::io {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum of
/// zip/png/ethernet. @p seed lets callers chain partial computations.
/// Inputs of 64 bytes and more fold 16-byte blocks with carry-less
/// multiplies when the host has PCLMULQDQ; everything else, and every
/// host without it, runs slicing-by-8. Both give exactly the output of the
/// classic bytewise loop.
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0) noexcept;

namespace detail {

/// Slicing-by-8 (eight table lookups per eight input bytes, a bytewise
/// tail). Runs on every host.
std::uint32_t crc32_sliced(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0) noexcept;
/// True on an x86-64 host with PCLMULQDQ: the one runtime probe, taken
/// once per process.
bool crc32_fold_supported() noexcept;
/// Folds 4x128 bits per 64 bytes, then 128 bits per 16, and
/// Barrett-reduces to 32 (Intel, "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction"); the last < 16 bytes, and
/// inputs shorter than 64, go through crc32_sliced. Where
/// crc32_fold_supported() is false this is crc32_sliced.
std::uint32_t crc32_folded(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0) noexcept;

}  // namespace detail

/// Frame header size: u32 length + u32 CRC.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound a reader accepts for one payload. A bit-flipped length field
/// must not provoke a gigabyte allocation; nothing we frame is remotely
/// this large.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Appends one frame (header + payload) to @p out.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

/// Incremental frame decoder: the streaming core shared by the journal
/// reader (whole file at once) and the network ingest path (arbitrary
/// recv() chunks). Bytes arrive at whatever boundaries the source produced
/// them: a socket owner recv()s straight into prepare()'s room and
/// commit()s what arrived; feed() is prepare + copy + commit for bytes that
/// already sit in memory. next() yields each complete, CRC-verified
/// payload as soon as its last byte has arrived. A frame split across any
/// number of commits decodes identically to one delivered whole.
///
/// Corruption is terminal: an oversized length field or a CRC mismatch
/// poisons the decoder (corrupt() == true) and next() never yields again —
/// the byte stream has lost framing and nothing after the failure can be
/// trusted. A socket owner closes the connection; a file reader treats it
/// as the torn tail.
///
/// Memory contract: the storage is grow-only and never zero-filled. It
/// holds the bytes of the frame being assembled (bounded by
/// @p max_payload) plus whatever trailing fragment the last commit
/// carried; consumed frames are compacted away by prepare(), and the
/// capacity is kept across frames and reset(). A connection that
/// reserve()s once decodes with zero steady-state allocation. Spans
/// returned by next() point into the storage and stay valid until the next
/// prepare(), feed() or reserve().
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload) noexcept
      : max_payload_(max_payload) {}

  /// Pre-sizes the storage: prepare() then allocates nothing as long as
  /// unconsumed bytes plus the room asked for fit in @p bytes.
  void reserve(std::size_t bytes);

  /// Compacts consumed frames away (invalidating spans returned by next())
  /// and returns @p n writable bytes after the unconsumed ones, growing
  /// the storage only when they do not fit.
  std::span<std::uint8_t> prepare(std::size_t n);

  /// Appends the first @p n bytes of the last prepare()'s room to the
  /// stream; @p n must not exceed the room's size. Ignored once corrupt.
  void commit(std::size_t n) noexcept;

  /// Appends raw stream bytes: prepare + copy + commit.
  void feed(std::span<const std::uint8_t> bytes);

  /// Back to the freshly-constructed state, retaining storage — a
  /// connection slot reuses one decoder across many connections without
  /// reallocating.
  void reset() noexcept {
    head_ = 0;
    tail_ = 0;
    fed_ = 0;
    corrupt_ = false;
  }

  /// The next complete intact payload, or nullopt when more bytes are
  /// needed (or the stream is poisoned). Never throws.
  std::optional<std::span<const std::uint8_t>> next() noexcept;

  /// True once a frame failed (oversized length or CRC mismatch); the
  /// decoder is then permanently stopped.
  bool corrupt() const noexcept { return corrupt_; }
  /// Total stream offset one past the last intact frame consumed — the
  /// "durable prefix" a file reader truncates back to.
  std::size_t consumed_bytes() const noexcept { return fed_ - pending_bytes(); }
  /// Bytes committed but not yet consumed as complete frames (a partial
  /// frame, or everything after the corruption point).
  std::size_t pending_bytes() const noexcept { return tail_ - head_; }

 private:
  std::size_t max_payload_;
  std::unique_ptr<std::uint8_t[]> storage_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;   ///< first unconsumed byte in storage_
  std::size_t tail_ = 0;   ///< one past the last committed byte
  std::size_t fed_ = 0;    ///< total bytes ever committed
  bool corrupt_ = false;
};

/// Forward scanner over a framed byte buffer. Stops permanently at the
/// first torn frame (truncated header/payload, oversized length, or CRC
/// mismatch); valid_bytes() then marks the end of the durable prefix.
/// A thin wrapper over FrameDecoder fed the whole buffer up front — the
/// one-shot view of the same grammar the incremental paths consume.
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::uint8_t> bytes) {
    decoder_.feed(bytes);
  }

  /// The next intact payload, or nullopt at end-of-prefix. Never throws.
  std::optional<std::span<const std::uint8_t>> next() noexcept {
    if (stopped_) return std::nullopt;
    if (auto payload = decoder_.next()) return payload;
    // End of input: anything left pending is a torn/corrupt tail.
    stopped_ = true;
    torn_ = decoder_.corrupt() || decoder_.pending_bytes() > 0;
    return std::nullopt;
  }

  /// Offset one past the last intact frame returned so far.
  std::size_t valid_bytes() const noexcept { return decoder_.consumed_bytes(); }
  /// True once next() hit a torn/corrupt frame (bytes remain past the
  /// valid prefix). False on a clean end.
  bool torn() const noexcept { return torn_; }

 private:
  FrameDecoder decoder_;
  bool torn_ = false;
  bool stopped_ = false;
};

/// Reads a whole file into memory; a missing file yields an empty buffer
/// (recovery treats "never written" and "empty" the same way).
/// @throws std::runtime_error on a read error other than non-existence.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// Crash-consistent replace: writes @p bytes to `path + ".tmp"`, fsyncs the
/// file, renames it over @p path, and fsyncs the parent directory so the
/// rename itself is durable. A crash at any instant leaves either the old
/// file or the new one, never a hybrid. @throws std::runtime_error on I/O
/// failure.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

}  // namespace sift::io
