// The fleet runtime: one engine multiplexes many wearers' detection
// pipelines over a thread-per-core worker pool.
//
//   ingest(user, packet)                       producer slot p (per thread)
//        │  shard = hash(user) % shards
//        │  worker = shard % workers           (pinned for the session's life)
//        ▼
//   SpscRing[p → worker]  ──(lock-free; backpressure: block / shed-request)──┐
//        │                                                                   │
//        ▼  every shard (and so every session) is owned by ONE worker        ▼
//   worker threads ── SessionTable::with_session ── BaseStation ── verdicts
//
// Shard-per-core ownership: a user maps to exactly one shard and a shard to
// exactly one worker, so session state never crosses cores and each session
// sees its packets in ingest order. The only producer/consumer handoff is a
// lock-free single-producer/single-consumer ring per (producer slot, worker)
// edge — ingesting threads claim a slot once (CAS on a small owner array;
// the last slot is a mutex-serialised overflow lane so an unbounded number
// of threads stays correct) and then push without ever taking a lock.
// Verdict durability is per-core too: worker w appends to journal segment w
// (see fleet/durable/durability.hpp). Metrics are wired through every stage
// so the engine is observable under load (see fleet/metrics.hpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/metrics.hpp"
#include "fleet/model_registry.hpp"
#include "fleet/session_table.hpp"
#include "fleet/spsc_ring.hpp"
#include "wiot/packet.hpp"
#include "wiot/validate.hpp"

namespace sift::io {
class StateReader;
}  // namespace sift::io

namespace sift::fleet {

class FaultInjector;

namespace durable {
class Durability;
}  // namespace durable

/// What a full (producer, worker) lane does with the next envelope: block
/// the producer (lossless, pushes the pressure back to the ingest socket)
/// or shed the *oldest* staged envelope (bounded latency: stale sensor
/// windows are worth less than fresh ones, and every shed envelope is
/// counted so operators see the loss).
enum class BackpressurePolicy {
  kBlock,      ///< producers wait for space (lossless)
  kDropOldest  ///< evict the oldest staged element, count the drop
};

inline const char* to_string(BackpressurePolicy p) noexcept {
  return p == BackpressurePolicy::kBlock ? "block" : "drop-oldest";
}

/// Per-user ingest-validation bookkeeping. The per-channel high-waters
/// exist for exactly-once recovery: a reject charged before a checkpoint
/// must not be re-charged when the same (re-corrupted) packet is re-fed
/// after a restart.
struct RejectState {
  std::uint64_t count = 0;
  std::uint32_t ecg_seen = 0;  ///< one past the highest rejected ECG seq
  std::uint32_t abp_seen = 0;
};

/// Worker-side fault supervision: how many consecutive pipeline throws a
/// session survives before it is quarantined, and how often a quarantined
/// session gets a probe packet to prove it recovered.
struct SupervisionConfig {
  std::size_t quarantine_threshold = 3;
  /// Packets dropped (and counted) between quarantine probes.
  std::size_t probe_interval = 16;
};

/// Load-shed degradation down the paper's detector ladder
/// (Original → Simplified → Reduced) when a worker's inbound rings stay
/// hot. Requires a TieredModelProvider; silently inactive otherwise.
struct LoadShedConfig {
  bool enabled = false;
  std::size_t high_watermark = 192;  ///< inbound depth that forces a step down
  std::size_t low_watermark = 8;     ///< inbound depth that allows a step up
  /// Packets a session waits between tier moves (hysteresis).
  std::size_t cooldown_packets = 4;
};

/// Worker-side anti-replay defense. The ingest validation gate is
/// stateless; this gate runs on the owning worker, where the session's
/// per-channel consume cursors are already core-local, and catches what
/// statelessness cannot:
///   * backward jumps beyond replay_window packets — a captured trace
///     replayed past the reassembly dedupe — are dropped before they touch
///     station state or recount against the durability cursors, counted in
///     fleet.seq_anomalies (+ per-user Health::seq_anomalies);
///   * forward jumps beyond the station's max_seq_jump — seq spoofing —
///     are handed to the station (which refuses them, as before) but are
///     additionally charged as anomalies, and crucially do NOT advance the
///     ingest cursor, so a forged far-future seq can no longer orphan the
///     genuine stream across a recovery.
/// Repeated anomalies accumulate per-session suspicion; past the threshold
/// the session is quarantined — verdicts withheld, packets shed, and the
/// PR 3 probe machinery re-admits it once clean traffic resumes — rather
/// than hard-dropped.
struct AntiReplayConfig {
  /// Backward slack (packets, per channel) treated as a benign retransmit.
  std::uint32_t replay_window = 16;
  /// Quarantine at/above this (every anomaly charges a fixed 16).
  std::uint64_t suspicion_threshold = 64;
};

struct FleetConfig {
  /// 0 = one worker per available core. Explicit values are clamped to
  /// hardware_concurrency() — oversubscribing a small container only adds
  /// context-switch noise, never throughput (and made every BENCH fleet
  /// number advisory before the thread-per-core refactor).
  std::size_t workers = 0;
  std::size_t shards = 8;
  std::size_t queue_capacity = 256;  ///< envelopes per (producer, worker) ring
  /// Pin worker w to core w (pthread affinity, Linux only; no-op
  /// elsewhere). Off by default: tests and embedders share machines.
  bool pin_cores = false;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  std::size_t model_cache_capacity = 64;  ///< LRU registry residency bound
  wiot::BaseStation::Config station;      ///< per-session window config
  /// Ingest-side packet validation (fleet.packets_rejected), always on.
  /// When validation.expected_samples is 0 it is pinned to
  /// station.samples_per_packet at construction.
  wiot::ValidationLimits validation;
  BreakerPolicy breaker;  ///< model-load retry/backoff/breaker policy
  SupervisionConfig supervision;
  LoadShedConfig load_shed;
  AntiReplayConfig anti_replay;
  /// Chaos hook (non-owning, may be null): stalls workers, forces shed
  /// depth, and throws on the per-packet path per its seeded schedule.
  FaultInjector* injector = nullptr;
  /// Durability hook (non-owning, may be null): every fresh verdict is
  /// journaled under the session's shard lock into the owning worker's
  /// journal segment (the engine attaches one segment per worker at
  /// construction), and validation rejects are deduplicated across
  /// restarts (see fleet/durable/durability.hpp).
  durable::Durability* durability = nullptr;
};

/// Outcome of a non-blocking ingest attempt (see FleetEngine::try_ingest).
enum class IngestStatus : std::uint8_t {
  kAccepted,    ///< enqueued (possibly shedding the oldest under kDropOldest)
  kInvalid,     ///< failed packet validation; rejected and counted
  kClosed,      ///< engine is draining; rejected and counted
  kWouldBlock,  ///< inbound ring full under kBlock; packet NOT consumed
};

class FleetEngine {
 public:
  /// Envelopes a worker moves out of one ring per pop_n; the chunk is then
  /// classified in FIFO order, one SessionTable::with_session per envelope.
  /// Chunking exists for the ring, not the session lock: a kBlock producer
  /// facing a full ring spins on the ring's head index, and releasing that
  /// index once per envelope bounced its cache line on every pop. Popping
  /// one envelope at a time cut perfbench fleet-inproc throughput from
  /// 26.1k to 21.8k verdicts/s and raised CPU per verdict from 34.4 to
  /// 41.5 us (4-core Xeon, one pinned worker, medians of 4 interleaved 20 s
  /// pairs).
  static constexpr std::size_t kDrainChunk = 16;

  /// Workers start immediately. @throws std::invalid_argument on zero
  /// shards/queue capacity (via the members) — workers=0 resolves to one
  /// per available core, explicit counts are clamped to the core count.
  /// The tiered overload enables the load-shed degradation ladder.
  FleetEngine(ModelProvider provider, FleetConfig config);
  FleetEngine(TieredModelProvider provider, FleetConfig config);
  ~FleetEngine();  ///< drains if the caller has not

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Enqueues one packet onto the owning worker's ring, applying the
  /// backpressure policy (kBlock may wait). Returns false when the engine
  /// is draining — the packet was rejected, which is also counted in
  /// fleet.ingest_rejected.
  bool ingest(int user_id, wiot::Packet packet);

  /// Non-blocking ingest for event-loop front ends: identical validation
  /// and accounting to ingest(), but a full ring under kBlock returns
  /// kWouldBlock *without consuming the packet* instead of stalling the
  /// caller — the socket server parks the packet, gates the connection's
  /// reads, and retries, so one hot worker slows only the connections
  /// feeding it. On kAccepted, @p packet comes back holding the buffers of
  /// a packet a worker already classified (or empty ones while the ring is
  /// still cold): ready for the next parse without an allocation.
  IngestStatus try_ingest(int user_id, wiot::Packet& packet);

  /// Graceful shutdown: stops accepting, waits for in-flight producers to
  /// land, processes everything already enqueued, joins the workers.
  /// Idempotent; called by the destructor.
  void drain();

  std::size_t workers() const noexcept { return worker_states_.size(); }
  const FleetConfig& config() const noexcept { return config_; }
  const SessionTable& sessions() const noexcept { return table_; }
  const ModelRegistry& models() const noexcept { return registry_; }
  /// Mutable registry access for bulk operations (manifest warm-load
  /// before traffic starts); per-packet acquisition stays internal.
  ModelRegistry& models() noexcept { return registry_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  std::uint64_t windows_classified() const noexcept {
    return windows_->value();
  }
  std::uint64_t alerts() const noexcept { return alerts_->value(); }

  /// Point-in-time sum of every inbound ring's depth (what a stats reply
  /// and the load driver's settle loop observe).
  std::size_t queue_depth() const;

  /// The worker that owns @p user_id's session for this engine's lifetime.
  std::size_t worker_of(int user_id) const {
    return table_.shard_of(user_id) % worker_states_.size();
  }

  /// Ingest-side validation rejects charged to @p user_id (0 if none).
  std::uint64_t rejects_for(int user_id) const;

  /// Copy of the per-user reject bookkeeping (checkpointed by the
  /// durability layer).
  std::unordered_map<int, RejectState> rejects_snapshot() const;
  /// Restores reject bookkeeping from a checkpoint (recovery path).
  void restore_rejects(std::unordered_map<int, RejectState> rejects);

  /// Recovery: rebuilds one session from checkpointed state (creating it,
  /// then importing health/cursors/station residue under the shard lock)
  /// and returns its ingest cursors for the replay feed. When the
  /// registry is tiered and the checkpoint recorded a different rung, the
  /// detector is reinstalled at the recorded tier.
  /// @throws std::runtime_error on geometry mismatch or truncated state.
  SessionCursors restore_session(int user_id, io::StateReader& reader);

  /// The per-channel durable ingest cursors a reconnecting client should
  /// resume from; arms the session's resume grace (Session::resume_exempts).
  /// Never creates a session: an unknown user gets {0, 0}. Thread-safe
  /// (shard lock), callable from the network thread.
  SessionCursors cursors_for_resume(int user_id);

  /// Charges one suspicion step against @p user_id's session — the hook a
  /// transport-level abuse signal (per-connection rate limiting) uses to
  /// feed the anti-replay quarantine machinery without fabricating a wire
  /// anomaly.
  void note_suspicion(int user_id);

  /// Refreshes the level gauges (queue depth, per-worker ring depth,
  /// residency, per-station aggregates) and returns the full JSON
  /// snapshot.
  std::string metrics_json();

 private:
  struct Envelope {
    int user_id = 0;
    std::size_t shard = 0;
    wiot::Packet packet;
    std::chrono::steady_clock::time_point enqueued;
    /// Injector-forced shed depth, resolved once per dequeue at batch
    /// start (the hook must fire exactly once per envelope, outside locks).
    std::optional<std::size_t> forced_depth;
  };

  /// Ingesting threads that get a private lock-free lane to every worker.
  /// The last slot is a mutex-serialised overflow shared by any further
  /// threads, so correctness never depends on this bound.
  static constexpr std::size_t kProducerSlots = 8;
  /// Suspicion charged per replay/spoof anomaly or transport abuse signal.
  static constexpr std::uint64_t kSuspicionStep = 16;

  /// One ingest lane. Producer threads claim a slot with a CAS on `owner`
  /// (keyed by a process-wide recycled thread token) and keep it for the
  /// thread's lifetime; the final slot is the shared overflow lane, where
  /// `overflow_mu` restores the single-producer invariant by serialising
  /// pushes. `in_flight` is the drain handshake: a producer holds it
  /// non-zero across the draining_ re-check and the push, so drain() can
  /// wait until every in-flight envelope has landed in a ring before it
  /// lets the workers run their final sweep.
  struct ProducerSlot {
    std::atomic<std::uint64_t> owner{0};  ///< thread token; 0 = free
    std::atomic<std::uint32_t> in_flight{0};
    std::mutex overflow_mu;  ///< used only by the overflow slot
  };

  /// Wake-up channel + inbound rings for one worker. `signal` is an epoch
  /// counter adapted from the mutexed design to the lock-free rings: a
  /// producer bumps it (seq_cst) after every push and only takes the mutex
  /// to notify when the worker has advertised `sleeping` — the seq_cst
  /// store/load pairing closes the race between "worker found all rings
  /// empty" and "producer pushed just before the worker went to sleep".
  struct WorkerState {
    std::size_t index = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::uint64_t> signal{0};
    std::atomic<bool> sleeping{false};
    /// rings[p] is the SPSC lane from producer slot p to this worker.
    std::vector<std::unique_ptr<SpscRing<Envelope>>> rings;
    /// Dequeue scratch: pop_n swaps a chunk in and leaves the previous
    /// chunk's spent envelopes in the ring for the producer to reuse.
    std::array<Envelope, kDrainChunk> batch;
    // Per-core observability, resolved once at construction.
    Counter* packets = nullptr;        ///< envelopes processed by this core
    Counter* batches = nullptr;        ///< chunks popped (≥1 envelope each)
    LatencyHistogram* batch_size = nullptr;  ///< envelopes per popped chunk
  };

  void worker_loop(WorkerState& self);
  std::size_t sweep_inbound_rings(WorkerState& self);
  IngestStatus ingest_impl(int user_id, wiot::Packet& packet, bool blocking);
  /// Claims (or finds) this thread's producer slot.
  ProducerSlot& acquire_slot(std::size_t& index);
  /// Sum of one worker's inbound ring depths (the load-shed signal).
  std::size_t inbound_depth(const WorkerState& w) const;
  void wake_worker(WorkerState& w);
  /// Classifies one popped chunk in FIFO order, each envelope under its
  /// own SessionTable::with_session. All envelopes were popped from this
  /// worker's own rings, so every session touched is core-local by
  /// construction.
  void process_batch(WorkerState& self, std::span<Envelope> batch);
  /// The per-packet detection path, run under the session's shard lock.
  /// @p backlog is how many envelopes of this chunk are still unprocessed —
  /// it counts toward the depth the load-shed check observes.
  void process_one(WorkerState& self, Session& session, Envelope& env,
                   std::size_t backlog, std::size_t ring_depth);
  void resolve_instruments();
  /// Charges kSuspicionStep, quarantining the session at the threshold.
  /// Caller holds the session's shard lock.
  void charge_suspicion(Session::Health& health);
  /// Steps @p session along the degradation ladder based on the worker's
  /// inbound depth (possibly overridden by the injector during a burst).
  void maybe_shift_tier(Session& session, int user_id,
                        std::size_t observed_depth);

  FleetConfig config_;
  MetricsRegistry metrics_;
  ModelRegistry registry_;
  SessionTable table_;
  std::vector<std::unique_ptr<ProducerSlot>> slots_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_requested_{false};
  std::once_flag drain_once_;

  // Hot-path instruments, resolved once at construction.
  Counter* ingested_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* dropped_ = nullptr;
  Counter* windows_ = nullptr;
  Counter* alerts_ = nullptr;
  Counter* degraded_ = nullptr;
  Counter* packets_rejected_ = nullptr;    ///< ingest validation
  Counter* unscored_windows_ = nullptr;    ///< windows without a model
  Counter* worker_faults_ = nullptr;       ///< pipeline throws caught
  Counter* quarantine_entries_ = nullptr;
  Counter* quarantine_exits_ = nullptr;
  Counter* quarantine_dropped_ = nullptr;
  Counter* tier_downgrades_ = nullptr;
  Counter* tier_upgrades_ = nullptr;
  Counter* seq_anomalies_ = nullptr;   ///< replay/spoof events (all users)
  Counter* replay_dropped_ = nullptr;  ///< packets dropped at the replay gate
  Counter* suspect_sessions_ = nullptr;  ///< quarantines entered by suspicion
  LatencyHistogram* e2e_latency_ = nullptr;
  LatencyHistogram* detect_latency_ = nullptr;

  // Per-user validation-reject tallies; off the accept path (only rejects
  // take the lock), so ingest stays allocation-free for valid traffic.
  mutable std::mutex reject_mu_;
  std::unordered_map<int, RejectState> rejects_by_user_;

  std::vector<std::jthread> threads_;  ///< last member: joins before teardown
};

}  // namespace sift::fleet
