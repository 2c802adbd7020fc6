// Durability layer for the fleet engine: per-core write-ahead verdict
// journal segments + crash-consistent checkpoints + exactly-once recovery.
//
// Contract (the order is the correctness argument):
//
//   1. WAL invariant — a verdict is appended to the owning worker's
//      journal segment *inside* the session's shard lock, so by the time
//      checkpoint() snapshots that session (under the same lock) every
//      verdict the snapshot reflects is already staged; checkpoint() then
//      flushes every segment *before* renaming the checkpoint into place.
//      Hence per user: checkpoint high-water ≤ journal high-water, always.
//
//   2. Checkpoints are atomic — serialized to a temp file, fsync'd, and
//      renamed over checkpoint.bin, with the previous generation rotated
//      to checkpoint.prev. A crash at any instant leaves at least one
//      intact generation to recover from.
//
//   3. Exactly-once — recovery restores the newest intact checkpoint
//      bit-identically (session reassembly state, health counters, ingest
//      cursors, reject tallies), and the merged segment scan seeds a
//      per-user next-expected-seq map. Re-feeding the packet suffix
//      (seq ≥ cursor) recomputes the lost windows deterministically;
//      on_verdict drops any recomputed verdict whose seq is below the
//      journal high-water, so no frame is ever double-appended or
//      silently lost.
//
//   4. Per-core segments merge deterministically — a session is owned by
//      exactly one worker per engine lifetime, so one user's records live
//      in one segment per run and carry globally unique, strictly
//      increasing seqs. The merge of all segments is therefore just
//      "collect every record, order each user's stream by seq" — it is
//      independent of segment count, so a fleet restarted with a
//      different core count recovers the exact same state.
//
// Worker w appends to journal.<w>.bin. The engine calls attach_segments()
// with its resolved worker count at construction; a Durability used
// without an engine (or before attach) routes everything to segment 0.
//
// Known scope limit: exactly-once reject accounting keys on the packet's
// sequence number, so it assumes seq integrity on the wire (payload
// corruption is fully covered; a corrupted *sequence number* is rejected
// but may be recounted across a restart).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/durable/journal.hpp"
#include "fleet/session.hpp"
#include "wiot/base_station.hpp"

namespace sift::fleet {

class FleetEngine;

namespace durable {

struct DurabilityConfig {
  JournalConfig journal;
};

/// What recovery found and restored.
struct RecoveryResult {
  bool checkpoint_loaded = false;
  /// Generation files present but not loadable: torn, corrupt, or taken
  /// under another station geometry (BaseStation::import_state's guard).
  std::size_t checkpoints_refused = 0;
  std::size_t sessions_restored = 0;
  std::uint64_t frames_replayed = 0;        ///< journal frames read back
  std::uint64_t frames_discarded_torn = 0;  ///< torn tails truncated
  /// Per-user ingest cursors — feed packets with seq ≥ cursor to resume.
  std::unordered_map<int, SessionCursors> cursors;
};

class Durability {
 public:
  /// Opens (creating if needed) segment 0 under @p dir, discovers any
  /// further journal.<i>.bin segments from a previous run, and scans them
  /// all: the scan both truncates torn tails and seeds the exactly-once
  /// dedupe maps. @p dir must already exist.
  explicit Durability(std::string dir, DurabilityConfig config = {});

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  /// Grows the segment set to @p count (the engine's resolved worker
  /// count) so each core appends to its own file. Never shrinks: extra
  /// on-disk segments from a wider previous run stay attached so their
  /// records merge into recovery. Call before traffic flows (the engine
  /// does, at construction, before its workers start).
  void attach_segments(std::size_t count);

  /// Journal hook, called by the engine under the session's shard lock for
  /// every freshly classified window; @p segment is the owning worker's
  /// index. Verdicts at or above the user's next-expected seq are
  /// appended; recomputed duplicates (recovery replay below the journal
  /// high-water) are counted and dropped.
  void on_verdict(int user_id, const wiot::BaseStation::WindowReport& report,
                  const Session::Health& health, std::size_t segment = 0);

  /// Takes one crash-consistent checkpoint of @p engine: snapshots every
  /// session under its shard lock, then the reject tallies, then flushes
  /// every journal segment (WAL order), then atomically replaces
  /// checkpoint.bin (previous generation rotated to checkpoint.prev).
  /// Safe to call while the engine is ingesting.
  void checkpoint(FleetEngine& engine);

  /// Restores the newest intact checkpoint generation into @p engine
  /// (which must be freshly constructed) and reports the replay cursors.
  /// A corrupt/torn generation falls back to the previous one; with no
  /// usable checkpoint the engine starts empty and the journal dedupe
  /// maps alone still guarantee exactly-once journaling on a full re-feed.
  RecoveryResult recover_into(FleetEngine& engine);

  /// Flushes every segment (group-commit barrier on each).
  void flush();

  std::size_t segment_count() const noexcept { return segments_.size(); }
  Journal& journal(std::size_t segment = 0) noexcept {
    return *segments_[segment]->journal;
  }
  const std::string& dir() const noexcept { return dir_; }

  std::uint64_t checkpoints_written() const noexcept {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  /// Sum of durable bytes across every segment.
  std::uint64_t journal_bytes() const noexcept;
  /// Sum of append() calls across every segment.
  std::uint64_t journal_appends() const noexcept;
  std::uint64_t frames_replayed() const noexcept { return frames_replayed_; }
  std::uint64_t frames_discarded_torn() const noexcept {
    return frames_discarded_torn_;
  }
  std::uint64_t frames_deduplicated() const noexcept {
    return frames_deduplicated_.load(std::memory_order_relaxed);
  }
  /// Segment durable size at the last checkpoint — everything at or below
  /// this offset is covered by the checkpoint's fsync barrier (tests use
  /// it to bound simulated torn tails per segment).
  std::uint64_t journal_barrier_bytes(std::size_t segment = 0) const;

  std::string journal_path(std::size_t segment = 0) const {
    return segment_file(dir_, segment);
  }
  std::string checkpoint_path() const { return dir_ + "/checkpoint.bin"; }

  /// Deterministic merge input: every record of every segment under
  /// @p dir, in (segment, file-offset) order. One user's records never
  /// span segments within a run and seqs are strictly increasing per
  /// user, so sorting a user's records by seq yields the canonical
  /// stream regardless of how many cores wrote them.
  static std::vector<VerdictRecord> scan_merged(const std::string& dir);

  static std::string segment_file(const std::string& dir,
                                  std::size_t segment);

 private:
  struct ParsedCheckpoint;
  /// One per-core lane: its journal plus its own dedupe map, so verdict
  /// appends from different workers never contend on a shared mutex.
  struct SegmentState {
    std::unique_ptr<Journal> journal;
    std::mutex mu;  ///< guards next_seq
    std::unordered_map<int, std::uint64_t> next_seq;
  };

  bool try_load(const std::string& path,
                const wiot::BaseStation::Config& station,
                ParsedCheckpoint& out) const;
  void open_segment(std::size_t index);

  std::string dir_;
  DurabilityConfig config_;
  std::vector<std::unique_ptr<SegmentState>> segments_;
  /// Union high-water per user across every segment found at startup;
  /// copied into each newly attached segment's dedupe map (a user may land
  /// on a different core than the run that journaled it).
  std::unordered_map<int, std::uint64_t> seed_next_seq_;

  mutable std::mutex barrier_mu_;  ///< guards barrier_bytes_
  std::vector<std::uint64_t> barrier_bytes_;

  std::uint64_t frames_replayed_ = 0;
  std::uint64_t frames_discarded_torn_ = 0;
  std::atomic<std::uint64_t> frames_deduplicated_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
};

}  // namespace durable
}  // namespace sift::fleet
