#include "fleet/durable/durability.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "fleet/engine.hpp"
#include "io/framed.hpp"

namespace sift::fleet::durable {
namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4B464953;  // "SIFK"
/// v2: per-segment barrier list (the thread-per-core WAL). v3: session
/// health without the never-written validation-reject count. Any other
/// version is rejected like a corrupt generation.
constexpr std::uint16_t kCheckpointVersion = 3;

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

struct Durability::ParsedCheckpoint {
  std::vector<std::uint64_t> journal_barriers;
  std::unordered_map<int, RejectState> rejects;
  std::vector<std::vector<std::uint8_t>> sessions;  ///< raw frame payloads
};

std::string Durability::segment_file(const std::string& dir,
                                     std::size_t segment) {
  return dir + "/journal." + std::to_string(segment) + ".bin";
}

Durability::Durability(std::string dir, DurabilityConfig config)
    : dir_(std::move(dir)), config_(config) {
  // Segment 0 always exists; further segments are discovered from a
  // previous run (the engine re-attaches up to its worker count later,
  // but records written by a wider fleet must merge into recovery even if
  // this run uses fewer cores). Each journal constructor truncates any
  // torn tail; scanning the now-clean files seeds the exactly-once dedupe
  // maps with each user's high-water seq, so recomputed verdicts from a
  // replay are dropped.
  open_segment(0);
  for (std::size_t i = 1; std::filesystem::exists(segment_file(dir_, i));
       ++i) {
    open_segment(i);
  }
  for (auto& seg : segments_) {
    seg->next_seq = seed_next_seq_;
  }
}

void Durability::open_segment(std::size_t index) {
  auto seg = std::make_unique<SegmentState>();
  seg->journal = std::make_unique<Journal>(segment_file(dir_, index),
                                           config_.journal);
  const auto scan = Journal::scan(segment_file(dir_, index));
  for (const auto& rec : scan.records) {
    auto& next = seed_next_seq_[rec.user_id];
    if (rec.seq >= next) next = rec.seq + 1;
  }
  frames_replayed_ += scan.records.size();
  if (seg->journal->recovered_torn()) ++frames_discarded_torn_;
  seg->next_seq = seed_next_seq_;
  segments_.push_back(std::move(seg));
  std::lock_guard lock(barrier_mu_);
  barrier_bytes_.resize(segments_.size(), 0);
}

void Durability::attach_segments(std::size_t count) {
  // Grow-only, called before traffic flows (engine construction precedes
  // its worker threads touching on_verdict). Every new segment inherits
  // the union dedupe map: a user that journaled on core A last run may be
  // owned by core B this run, and B must still drop A's replayed seqs.
  while (segments_.size() < count) {
    open_segment(segments_.size());
  }
}

void Durability::on_verdict(int user_id,
                            const wiot::BaseStation::WindowReport& report,
                            const Session::Health& health,
                            std::size_t segment) {
  SegmentState& seg = *segments_[segment % segments_.size()];
  const std::uint64_t seq = report.window_index;
  {
    std::lock_guard lock(seg.mu);
    auto [it, inserted] = seg.next_seq.try_emplace(user_id, 0);
    if (seq < it->second) {
      // Already durable from before the crash: replay recomputed it (that
      // is how the session state catches up) but it must not re-journal.
      frames_deduplicated_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    it->second = seq + 1;
  }
  VerdictRecord rec;
  rec.user_id = user_id;
  rec.seq = seq;
  rec.decision_value = report.decision_value;
  rec.tier = static_cast<std::uint8_t>(report.tier);
  rec.flags = static_cast<std::uint8_t>(
      (report.altered ? VerdictRecord::kAltered : 0) |
      (report.degraded ? VerdictRecord::kDegraded : 0) |
      (report.hr_mismatch ? VerdictRecord::kHrMismatch : 0) |
      (report.unscored ? VerdictRecord::kUnscored : 0));
  rec.faults_total = static_cast<std::uint32_t>(health.faults_total);
  rec.quarantine_dropped =
      static_cast<std::uint32_t>(health.quarantine_dropped);
  seg.journal->append(rec);
}

void Durability::flush() {
  for (auto& seg : segments_) seg->journal->flush();
}

std::uint64_t Durability::journal_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& seg : segments_) total += seg->journal->durable_bytes();
  return total;
}

std::uint64_t Durability::journal_appends() const noexcept {
  std::uint64_t total = 0;
  for (const auto& seg : segments_) total += seg->journal->appends();
  return total;
}

std::uint64_t Durability::journal_barrier_bytes(std::size_t segment) const {
  std::lock_guard lock(barrier_mu_);
  return segment < barrier_bytes_.size() ? barrier_bytes_[segment] : 0;
}

std::vector<VerdictRecord> Durability::scan_merged(const std::string& dir) {
  std::vector<VerdictRecord> out;
  for (std::size_t i = 0;; ++i) {
    const std::string path = segment_file(dir, i);
    if (i > 0 && !std::filesystem::exists(path)) break;
    const auto scan = Journal::scan(path);
    out.insert(out.end(), scan.records.begin(), scan.records.end());
  }
  return out;
}

void Durability::checkpoint(FleetEngine& engine) {
  // 1. Sessions first, each under its shard lock: the snapshot of a session
  //    and the journaling of its verdicts serialize on the same lock, so
  //    every verdict this snapshot reflects is already staged.
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> payload;
  std::uint32_t count = 0;
  engine.sessions().for_each([&](int user_id, const Session& session) {
    payload.clear();
    io::StateWriter w(payload);
    w.i32(user_id);
    session.export_state(w);
    io::append_frame(body, payload);
    ++count;
  });
  // 2. Reject tallies after the sessions: any reject charged before a
  //    session's snapshot is guaranteed to be in this map (never lost),
  //    and the per-channel high-waters dedupe anything counted twice.
  const auto rejects = engine.rejects_snapshot();
  // 3. WAL order: every segment must be durable before the checkpoint that
  //    summarises them becomes visible.
  std::vector<std::uint64_t> barriers;
  barriers.reserve(segments_.size());
  for (auto& seg : segments_) {
    seg->journal->flush();
    barriers.push_back(seg->journal->durable_bytes());
  }

  payload.clear();
  io::StateWriter h(payload);
  h.u32(kCheckpointMagic);
  h.u16(kCheckpointVersion);
  h.u32(static_cast<std::uint32_t>(barriers.size()));
  for (const std::uint64_t b : barriers) h.u64(b);
  h.u32(count);
  h.u32(static_cast<std::uint32_t>(rejects.size()));
  for (const auto& [user_id, st] : rejects) {
    h.i32(user_id);
    h.u64(st.count);
    h.u32(st.ecg_seen);
    h.u32(st.abp_seen);
  }
  std::vector<std::uint8_t> file;
  file.reserve(payload.size() + io::kFrameHeaderBytes + body.size());
  io::append_frame(file, payload);
  file.insert(file.end(), body.begin(), body.end());

  // 4. Atomic publish with one generation of rollback: the new checkpoint
  //    is durable under checkpoint.new, then bin rotates to prev, then new
  //    rotates to bin. A crash between any two steps leaves an intact
  //    generation under one of the three names.
  const std::string fresh = dir_ + "/checkpoint.new";
  io::write_file_atomic(fresh, file);
  (void)std::rename(checkpoint_path().c_str(),
                    (dir_ + "/checkpoint.prev").c_str());
  if (std::rename(fresh.c_str(), checkpoint_path().c_str()) != 0) {
    throw std::runtime_error("durability: cannot publish checkpoint in " +
                             dir_);
  }
  fsync_dir(dir_);

  {
    std::lock_guard lock(barrier_mu_);
    for (std::size_t i = 0; i < barriers.size() && i < barrier_bytes_.size();
         ++i) {
      barrier_bytes_[i] = barriers[i];
    }
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
}

bool Durability::try_load(const std::string& path,
                          const wiot::BaseStation::Config& station,
                          ParsedCheckpoint& out) const {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = io::read_file_bytes(path);
  } catch (const std::exception&) {
    return false;
  }
  if (bytes.empty()) return false;
  try {
    io::FrameReader reader(bytes);
    const auto header = reader.next();
    if (!header) return false;
    io::StateReader h(*header);
    if (h.u32() != kCheckpointMagic) return false;
    const std::uint16_t version = h.u16();
    if (version != kCheckpointVersion) return false;
    const std::uint32_t n_segments = h.u32();
    if (n_segments > 4096) return false;  // sanity bound, not a format
    out.journal_barriers.reserve(n_segments);
    for (std::uint32_t i = 0; i < n_segments; ++i) {
      out.journal_barriers.push_back(h.u64());
    }
    const std::uint32_t session_count = h.u32();
    const std::uint32_t reject_count = h.u32();
    for (std::uint32_t i = 0; i < reject_count; ++i) {
      const int user_id = h.i32();
      RejectState st;
      st.count = h.u64();
      st.ecg_seen = h.u32();
      st.abp_seen = h.u32();
      out.rejects.emplace(user_id, st);
    }
    out.sessions.reserve(session_count);
    for (std::uint32_t i = 0; i < session_count; ++i) {
      const auto frame = reader.next();
      if (!frame) return false;  // torn mid-file: generation unusable
      // Dry-run the import against a throwaway session before accepting
      // the generation: the engine must never be partially mutated by a
      // frame whose CRC survived but whose payload is garbage.
      io::StateReader probe(*frame);
      (void)probe.i32();  // user id
      Session scratch(nullptr, station);
      (void)scratch.import_state(probe);
      if (!probe.exhausted()) return false;  // trailing bytes: not ours
      out.sessions.emplace_back(frame->begin(), frame->end());
    }
    return true;
  } catch (const std::exception&) {
    return false;  // truncated header fields etc.
  }
}

RecoveryResult Durability::recover_into(FleetEngine& engine) {
  RecoveryResult out;
  out.frames_replayed = frames_replayed_;
  out.frames_discarded_torn = frames_discarded_torn_;

  ParsedCheckpoint parsed;
  bool loaded = false;
  for (const char* name : {"/checkpoint.bin", "/checkpoint.new",
                           "/checkpoint.prev"}) {
    parsed = ParsedCheckpoint{};
    if (try_load(dir_ + name, engine.config().station, parsed)) {
      loaded = true;
      break;
    }
    if (std::filesystem::exists(dir_ + name)) ++out.checkpoints_refused;
  }
  if (!loaded) return out;  // cold start: journal dedupe still applies

  engine.restore_rejects(parsed.rejects);
  for (const auto& frame : parsed.sessions) {
    io::StateReader r(frame);
    const int user_id = r.i32();
    out.cursors[user_id] = engine.restore_session(user_id, r);
    ++out.sessions_restored;
  }
  {
    std::lock_guard lock(barrier_mu_);
    if (barrier_bytes_.size() < parsed.journal_barriers.size()) {
      barrier_bytes_.resize(parsed.journal_barriers.size(), 0);
    }
    for (std::size_t i = 0; i < parsed.journal_barriers.size(); ++i) {
      barrier_bytes_[i] = parsed.journal_barriers[i];
    }
  }
  out.checkpoint_loaded = true;
  return out;
}

}  // namespace sift::fleet::durable
