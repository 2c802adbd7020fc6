#include "fleet/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/features.hpp"
#include "fleet/durable/durability.hpp"
#include "fleet/faults.hpp"
#include "fleet/thread_name.hpp"
#include "io/state.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sift::fleet {

namespace {

/// Explicit worker counts are clamped to the machine: running more workers
/// than cores only adds context-switch noise (the historical workers=4
/// default on a 1-core container is why fleet benchmarks were advisory).
std::size_t resolve_workers(std::size_t requested) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (requested == 0) return hw;
  return std::min(requested, hw);
}

FleetConfig resolve_config(FleetConfig config) {
  // process_one journals the windows one receive() completed by reading
  // them back from the report history, and one receive() completes up to
  // max_buffered_windows windows; a shorter history would lose some.
  const wiot::BaseStation::Config& station = config.station;
  if (station.max_report_history > 0 &&
      station.max_report_history < station.max_buffered_windows) {
    throw std::invalid_argument(
        "FleetEngine: station.max_report_history must be 0 or at least "
        "station.max_buffered_windows");
  }
  if (config.validation.expected_samples == 0) {
    config.validation.expected_samples = config.station.samples_per_packet;
  }
  return config;
}

/// Process-wide recycled producer tokens. A thread acquires a token on its
/// first ingest and returns it when the thread exits; reuse keeps the slot
/// arrays small even when tests/benchmarks spawn producer threads in waves.
/// The pool mutex orders "old holder's last push" before "new holder's
/// first", so a recycled token never has two live writers.
class TokenPool {
 public:
  static TokenPool& instance() {
    static TokenPool pool;
    return pool;
  }
  std::uint64_t acquire() {
    std::lock_guard lock(mu_);
    if (!free_.empty()) {
      const std::uint64_t t = free_.back();
      free_.pop_back();
      return t;
    }
    return next_++;
  }
  void release(std::uint64_t token) {
    std::lock_guard lock(mu_);
    free_.push_back(token);
  }

 private:
  std::mutex mu_;
  std::vector<std::uint64_t> free_;
  std::uint64_t next_ = 1;
};

std::uint64_t thread_token() {
  struct Holder {
    std::uint64_t value = TokenPool::instance().acquire();
    ~Holder() { TokenPool::instance().release(value); }
  };
  thread_local Holder holder;
  return holder.value;
}

void pin_thread_to_core(std::size_t core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

}  // namespace

FleetEngine::FleetEngine(ModelProvider provider, FleetConfig config)
    : config_(resolve_config(config)),
      registry_(std::move(provider), config.model_cache_capacity,
                config.breaker),
      table_(config.shards, registry_, config.station) {
  resolve_instruments();
}

FleetEngine::FleetEngine(TieredModelProvider provider, FleetConfig config)
    : config_(resolve_config(config)),
      registry_(std::move(provider), config.model_cache_capacity,
                config.breaker),
      table_(config.shards, registry_, config.station) {
  resolve_instruments();
}

void FleetEngine::resolve_instruments() {
  ingested_ = &metrics_.counter("fleet.ingest_packets");
  rejected_ = &metrics_.counter("fleet.ingest_rejected");
  dropped_ = &metrics_.counter("fleet.queue_dropped");
  windows_ = &metrics_.counter("fleet.windows_classified");
  alerts_ = &metrics_.counter("fleet.alerts");
  degraded_ = &metrics_.counter("fleet.degraded_windows");
  packets_rejected_ = &metrics_.counter("fleet.packets_rejected");
  unscored_windows_ = &metrics_.counter("fleet.windows_unscored");
  worker_faults_ = &metrics_.counter("fleet.worker_faults");
  quarantine_entries_ = &metrics_.counter("fleet.sessions_quarantined");
  quarantine_exits_ = &metrics_.counter("fleet.quarantine_exits");
  quarantine_dropped_ = &metrics_.counter("fleet.quarantine_dropped");
  tier_downgrades_ = &metrics_.counter("fleet.tier_downgrades");
  tier_upgrades_ = &metrics_.counter("fleet.tier_upgrades");
  seq_anomalies_ = &metrics_.counter("fleet.seq_anomalies");
  replay_dropped_ = &metrics_.counter("fleet.replay_dropped");
  suspect_sessions_ = &metrics_.counter("fleet.suspect_sessions");
  e2e_latency_ = &metrics_.histogram("fleet.e2e_latency");
  detect_latency_ = &metrics_.histogram("fleet.detect_latency");

  const std::size_t n_workers =
      std::min(resolve_workers(config_.workers), config_.shards);
  slots_.reserve(kProducerSlots);
  for (std::size_t p = 0; p < kProducerSlots; ++p) {
    slots_.push_back(std::make_unique<ProducerSlot>());
  }
  worker_states_.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    auto state = std::make_unique<WorkerState>();
    state->index = w;
    state->rings.reserve(kProducerSlots);
    for (std::size_t p = 0; p < kProducerSlots; ++p) {
      state->rings.push_back(
          std::make_unique<SpscRing<Envelope>>(config_.queue_capacity));
    }
    const std::string prefix = "fleet.worker." + std::to_string(w);
    state->packets = &metrics_.counter(prefix + ".packets");
    state->batches = &metrics_.counter(prefix + ".batches");
    state->batch_size = &metrics_.size_histogram(prefix + ".batch_size");
    worker_states_.push_back(std::move(state));
  }
  if (config_.durability) {
    // Per-core WAL: worker w appends verdicts to journal segment w; the
    // segments merge deterministically at checkpoint/recovery time.
    config_.durability->attach_segments(n_workers);
  }
  threads_.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    threads_.emplace_back([this, state = worker_states_[w].get()] {
      name_this_thread("sift-worker-" + std::to_string(state->index));
      if (config_.pin_cores) pin_thread_to_core(state->index);
      worker_loop(*state);
    });
  }
}

FleetEngine::~FleetEngine() { drain(); }

std::uint64_t FleetEngine::rejects_for(int user_id) const {
  std::lock_guard lock(reject_mu_);
  const auto it = rejects_by_user_.find(user_id);
  return it == rejects_by_user_.end() ? 0 : it->second.count;
}

std::unordered_map<int, RejectState> FleetEngine::rejects_snapshot() const {
  std::lock_guard lock(reject_mu_);
  return rejects_by_user_;
}

void FleetEngine::restore_rejects(
    std::unordered_map<int, RejectState> rejects) {
  std::lock_guard lock(reject_mu_);
  rejects_by_user_ = std::move(rejects);
}

SessionCursors FleetEngine::restore_session(int user_id,
                                            io::StateReader& reader) {
  SessionCursors cursors;
  table_.with_session(table_.shard_of(user_id), user_id, [&](Session& s) {
    const Session::Restored restored = s.import_state(reader);
    cursors = s.cursors();
    // The fresh session came up at its provisioned tier; if the checkpoint
    // caught it mid-degradation, put it back on the recorded rung so the
    // replayed windows are scored by the same detector that would have
    // scored them in the uninterrupted run.
    if (restored.was_scored && s.scored() && registry_.tiered() &&
        s.tier() != restored.tier) {
      auto lease = registry_.try_acquire(user_id, restored.tier);
      if (lease.model) {
        s.install_detector(core::Detector(std::move(lease.model)));
      }
    }
  });
  return cursors;
}

SessionCursors FleetEngine::cursors(int user_id) {
  SessionCursors cursors;  // {0, 0}: unknown user starts from the beginning
  table_.if_session(table_.shard_of(user_id), user_id,
                    [&](Session& s) { cursors = s.cursors(); });
  return cursors;
}

SessionCursors FleetEngine::cursors_for_resume(int user_id) {
  SessionCursors cursors;
  table_.if_session(table_.shard_of(user_id), user_id, [&](Session& s) {
    cursors = s.cursors();
    s.arm_resume_grace();
  });
  return cursors;
}

void FleetEngine::note_suspicion(int user_id) {
  table_.with_session(table_.shard_of(user_id), user_id,
                      [&](Session& s) { charge_suspicion(s.health()); });
}

void FleetEngine::charge_suspicion(Session::Health& health) {
  health.suspicion += kSuspicionStep;
  if (!health.quarantined &&
      health.suspicion >= config_.anti_replay.suspicion_threshold) {
    // Suspect session: withhold verdicts and shed packets, but keep it
    // alive — the probe machinery re-admits it as soon as clean traffic
    // resumes (graceful degradation, not a hard drop).
    health.quarantined = true;
    ++health.quarantine_entries;
    ++health.suspect_entries;
    quarantine_entries_->add();
    suspect_sessions_->add();
    health.probe_countdown = config_.supervision.probe_interval;
  }
}

bool FleetEngine::ingest(int user_id, wiot::Packet packet) {
  return ingest_impl(user_id, packet, /*blocking=*/true) ==
         IngestStatus::kAccepted;
}

IngestStatus FleetEngine::try_ingest(int user_id, wiot::Packet& packet) {
  return ingest_impl(user_id, packet, /*blocking=*/false);
}

FleetEngine::ProducerSlot& FleetEngine::acquire_slot(std::size_t& index) {
  const std::uint64_t token = thread_token();
  const std::size_t overflow = slots_.size() - 1;
  for (std::size_t p = 0; p < overflow; ++p) {
    const std::uint64_t owner =
        slots_[p]->owner.load(std::memory_order_acquire);
    if (owner == token) {
      index = p;
      return *slots_[p];
    }
    std::uint64_t expected = 0;
    if (owner == 0 && slots_[p]->owner.compare_exchange_strong(
                          expected, token, std::memory_order_acq_rel)) {
      index = p;
      return *slots_[p];
    }
  }
  index = overflow;  // shared overflow lane, serialised by its mutex
  return *slots_[overflow];
}

void FleetEngine::wake_worker(WorkerState& w) {
  // seq_cst pairing with the worker's sleeping-store / signal-load: either
  // we observe sleeping==true and notify under the mutex, or the worker
  // observes our signal bump and skips the wait entirely.
  w.signal.fetch_add(1, std::memory_order_seq_cst);
  if (w.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(w.mu);
    w.cv.notify_one();
  }
}

IngestStatus FleetEngine::ingest_impl(int user_id, wiot::Packet& packet,
                                      bool blocking) {
  if (draining_.load(std::memory_order_seq_cst)) {
    rejected_->add();
    return IngestStatus::kClosed;
  }
  // Validation gate: a NaN sample or an insane sequence number must never
  // reach a ring, let alone a worker. Rejects are charged to the
  // session so one hostile wearer's garbage is visible as *their* problem.
  if (const wiot::PacketFault fault =
          wiot::validate_packet(packet, config_.validation);
      fault != wiot::PacketFault::kNone) {
    std::lock_guard lock(reject_mu_);
    RejectState& st = rejects_by_user_[user_id];
    if (config_.durability) {
      // Exactly-once accounting across restarts: a recovery replay re-feeds
      // (and re-corrupts) packets the checkpoint already charged — skip
      // anything at or below the checkpointed per-channel high-water. An
      // insane seq is untrustworthy by definition, so it never moves the
      // high-water (it would hide every later reject on the channel).
      std::uint32_t& seen = packet.kind == wiot::ChannelKind::kEcg
                                ? st.ecg_seen
                                : st.abp_seen;
      if (packet.seq < seen) return IngestStatus::kInvalid;
      if (fault != wiot::PacketFault::kSeqInsane) seen = packet.seq + 1;
    }
    packets_rejected_->add();
    ++st.count;
    return IngestStatus::kInvalid;
  }

  std::size_t slot_index = 0;
  ProducerSlot& slot = acquire_slot(slot_index);
  const bool serialized = slot_index == slots_.size() - 1;

  // Drain handshake: raise in_flight, then re-check draining (seq_cst on
  // both sides). Either drain() sees our in_flight and waits for the push
  // to land, or we see draining_ and bail before touching a ring.
  slot.in_flight.fetch_add(1, std::memory_order_seq_cst);
  if (draining_.load(std::memory_order_seq_cst)) {
    slot.in_flight.fetch_sub(1, std::memory_order_release);
    rejected_->add();
    return IngestStatus::kClosed;
  }

  Envelope env;
  env.user_id = user_id;
  env.shard = table_.shard_of(user_id);
  env.packet = std::move(packet);
  env.enqueued = std::chrono::steady_clock::now();

  WorkerState& owner = *worker_states_[env.shard % worker_states_.size()];
  SpscRing<Envelope>& ring = *owner.rings[slot_index];

  bool accepted = false;
  {
    // The overflow lane restores the SPSC invariant for slot-exhausted
    // threads by serialising their pushes; dedicated slots pass through
    // lock-free.
    std::unique_lock<std::mutex> overflow_lock;
    if (serialized) {
      overflow_lock = std::unique_lock<std::mutex>(slot.overflow_mu);
    }
    if (ring.try_push(env)) {
      accepted = true;
    } else if (config_.backpressure == BackpressurePolicy::kDropOldest) {
      // Drop-oldest re-phrased for SPSC: ask the consumer to evict from
      // the head, then spin until our push lands. The fresh packet is
      // always accepted; the oldest ones pay (counted when the worker
      // executes the shed).
      std::size_t spins = 0;
      for (;;) {
        ring.request_shed();
        wake_worker(owner);
        if (ring.try_push(env)) {
          accepted = true;
          break;
        }
        if (!blocking && ++spins >= 256) break;  // event loop: park & retry
        std::this_thread::yield();
      }
    } else if (blocking) {
      // kBlock: wait for the worker to make room (or for drain to start).
      for (;;) {
        if (draining_.load(std::memory_order_seq_cst)) break;
        std::this_thread::yield();
        if (ring.try_push(env)) {
          accepted = true;
          break;
        }
      }
    }
  }
  // Accepted or not, env now holds buffers for the caller: its own packet
  // back on a refusal, or whatever the ring slot held on success — a packet
  // a worker already classified, so the caller's next parse reuses warm
  // sample/peak capacity instead of allocating.
  packet = std::move(env.packet);
  if (!accepted) {
    slot.in_flight.fetch_sub(1, std::memory_order_release);
    if (!blocking &&
        !draining_.load(std::memory_order_seq_cst)) {
      return IngestStatus::kWouldBlock;
    }
    rejected_->add();
    return IngestStatus::kClosed;
  }
  ingested_->add();
  slot.in_flight.fetch_sub(1, std::memory_order_release);
  wake_worker(owner);
  return IngestStatus::kAccepted;
}

std::size_t FleetEngine::inbound_depth(const WorkerState& w) const {
  std::size_t depth = 0;
  for (const auto& ring : w.rings) depth += ring->size();
  return depth;
}

std::size_t FleetEngine::sweep_inbound_rings(WorkerState& self) {
  std::size_t processed = 0;
  for (auto& ring_ptr : self.rings) {
    SpscRing<Envelope>& ring = *ring_ptr;
    // Execute pending shed requests first: under kDropOldest a producer
    // facing a full ring asked us to evict from the head so its fresh
    // packet wins. Evicted envelopes count as queue drops; they stay in
    // their slots, so the producer's next pushes reuse their buffers.
    if (const std::size_t shed = ring.take_shed_requests()) {
      const std::size_t evicted = ring.discard_n(shed);
      if (evicted > 0) dropped_->add(evicted);
    }
    // Each pop leaves the previous chunk's spent envelopes in the freed
    // slots: the ring carries their buffers back to the producer.
    while (const std::size_t n = ring.pop_n(self.batch)) {
      self.batches->add();
      self.batch_size->observe(static_cast<double>(n));
      process_batch(self, std::span(self.batch).first(n));
      processed += n;
    }
  }
  self.packets->add(processed);
  return processed;
}

void FleetEngine::worker_loop(WorkerState& self) {
  for (;;) {
    const std::uint64_t seen = self.signal.load(std::memory_order_acquire);
    if (sweep_inbound_rings(self) > 0) continue;
    if (stop_requested_.load(std::memory_order_acquire)) {
      // Drain has already waited out every in-flight producer, so nothing
      // new can land: one final sweep empties anything that raced the stop
      // flag, then we exit.
      sweep_inbound_rings(self);
      return;
    }
    std::unique_lock lock(self.mu);
    self.sleeping.store(true, std::memory_order_seq_cst);
    // Advertise-sleep then re-check (Dekker store/load): a producer that
    // bumped signal after our sweep either sees sleeping==true and will
    // notify, or we see its bump here and skip the wait.
    if (self.signal.load(std::memory_order_seq_cst) != seen ||
        stop_requested_.load(std::memory_order_acquire)) {
      self.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }
    self.cv.wait(lock, [&] {
      return self.signal.load(std::memory_order_relaxed) != seen ||
             stop_requested_.load(std::memory_order_acquire);
    });
    self.sleeping.store(false, std::memory_order_relaxed);
  }
}

void FleetEngine::maybe_shift_tier(Session& session, int user_id,
                                   std::size_t observed_depth) {
  const LoadShedConfig& shed = config_.load_shed;
  if (!shed.enabled || !registry_.tiered() || !session.scored()) return;
  Session::Health& health = session.health();
  if (health.shed_cooldown > 0) {
    --health.shed_cooldown;
    return;
  }
  if (observed_depth >= shed.high_watermark) {
    const auto below = core::tier_below(session.tier());
    if (!below) return;  // already at the Reduced floor
    auto lease = registry_.try_acquire(user_id, *below);
    if (!lease.model) return;  // no artefact for that tier: stay put
    session.install_detector(core::Detector(std::move(lease.model)));
    tier_downgrades_->add();
    health.shed_cooldown = shed.cooldown_packets;
  } else if (observed_depth <= shed.low_watermark &&
             core::tier_rank(session.tier()) >
                 core::tier_rank(session.home_tier())) {
    const auto above = core::tier_above(session.tier());
    if (!above) return;
    auto lease = registry_.try_acquire(user_id, *above);
    if (!lease.model) return;
    session.install_detector(core::Detector(std::move(lease.model)));
    tier_upgrades_->add();
    health.shed_cooldown = shed.cooldown_packets;
  }
}

void FleetEngine::process_batch(WorkerState& self,
                                std::span<Envelope> batch) {
  if (config_.injector) {
    // The dequeue hook fires exactly once per envelope, in dequeue order,
    // before any shard lock is held — so chaos stalls never extend lock
    // hold times and burst windows keyed on dequeue index stay exact.
    for (Envelope& env : batch) {
      env.forced_depth = config_.injector->on_worker_dequeue(env.shard);
    }
  }
  // The backlog a shed decision should see is everything still waiting on
  // this core; resolved once per chunk (rings are this worker's own, so
  // the value only shrinks as the chunk progresses).
  const std::size_t ring_depth = inbound_depth(self);
  const std::size_t n = batch.size();
  for (std::size_t i = 0; i < n; ++i) {
    Envelope& env = batch[i];
    // The shard lock is uncontended on the detection path: this worker
    // owns the shard, only checkpoint/stats readers ever share it.
    table_.with_session(env.shard, env.user_id, [&](Session& session) {
      process_one(self, session, env, n - i - 1, ring_depth);
    });
  }
}

void FleetEngine::process_one(WorkerState& self, Session& session,
                              Envelope& env, std::size_t backlog,
                              std::size_t ring_depth) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t new_windows = 0;
  std::size_t new_alerts = 0;
  std::size_t new_degraded = 0;
  std::size_t new_unscored = 0;
  [&] {
    Session::Health& health = session.health();
    // Anti-replay gate, ahead of the cursor advance: the session's
    // per-channel cursors are the defender's state, already core-local.
    const SessionCursors& cur = session.cursors();
    const std::uint32_t next =
        env.packet.kind == wiot::ChannelKind::kEcg ? cur.ecg : cur.abp;
    const std::uint32_t seq = env.packet.seq;
    const bool spoofed_forward = config_.station.max_seq_jump != 0 &&
                                 seq > next &&
                                 seq - next > config_.station.max_seq_jump;
    // Under the resume grace a reconnect's resent tail is not a replay.
    const std::uint32_t window = config_.anti_replay.replay_window;
    const bool resent =
        !spoofed_forward &&
        session.resume_exempts(env.packet.kind, seq, next, window);
    const bool replayed = seq < next && next - seq > window && !resent;
    if (replayed || spoofed_forward) {
      ++health.seq_anomalies;
      seq_anomalies_->add();
      charge_suspicion(health);
      if (replayed) {
        // Dropped before it can touch reassembly state or recount
        // against the durability dedupe cursors.
        replay_dropped_->add();
        return;
      }
      // A forward spoof falls through to the station, which refuses it
      // (seq_rejected) exactly as before — but it must NOT advance the
      // ingest cursor, or the forged far-future seq would orphan every
      // genuine packet a post-crash replay should re-feed.
    }
    // Durability cursor: every delivered packet counts, even ones the
    // quarantine or fault paths below consume without classifying —
    // recovery must not re-feed anything that already mutated this state.
    if (!spoofed_forward) session.note_packet(env.packet);
    bool probing = false;
    if (health.quarantined) {
      if (spoofed_forward) {
        // A hostile packet must never serve as the recovery probe — the
        // station would refuse it without throwing, which would read as a
        // clean probe and re-admit a session that is still under attack.
        ++health.quarantine_dropped;
        quarantine_dropped_->add();
        return;
      }
      // Poisoned session: shed its packets, but let one through every
      // probe_interval drops to test whether the poison has passed.
      if (health.probe_countdown > 0) {
        --health.probe_countdown;
        ++health.quarantine_dropped;
        quarantine_dropped_->add();
        return;
      }
      probing = true;
    }
    // The backlog a shed decision should see is everything still waiting:
    // the inbound rings plus this batch's not-yet-processed envelopes.
    const std::size_t depth =
        env.forced_depth ? *env.forced_depth : ring_depth + backlog;
    maybe_shift_tier(session, env.user_id, depth);
    const wiot::BaseStation::Stats before = session.stats();
    try {
      if (config_.injector) {
        config_.injector->maybe_throw_in_worker(env.user_id);
      }
      session.receive(env.packet);
      health.consecutive_faults = 0;
      // Leaky bucket: clean traffic drains suspicion one unit per packet,
      // so a burst of anomalies ages out instead of condemning forever.
      if (!spoofed_forward && health.suspicion > 0) --health.suspicion;
      if (probing) {
        health.quarantined = false;
        ++health.quarantine_exits;
        quarantine_exits_->add();
        // Re-admission halves suspicion rather than clearing it: a session
        // that keeps attacking re-trips the threshold in half the time.
        health.suspicion /= 2;
      }
    } catch (...) {
      // Worker supervision: a throwing pipeline must cost exactly one
      // packet, never the worker (one poisoned wearer cannot take down a
      // shard). K consecutive faults quarantine the session.
      worker_faults_->add();
      ++health.faults_total;
      ++health.consecutive_faults;
      if (probing || health.consecutive_faults >=
                         config_.supervision.quarantine_threshold) {
        if (!health.quarantined) {
          health.quarantined = true;
          ++health.quarantine_entries;
          quarantine_entries_->add();
        }
        health.probe_countdown = config_.supervision.probe_interval;
      }
      return;
    }
    const wiot::BaseStation::Stats& after = session.stats();
    new_windows = after.windows_classified - before.windows_classified;
    new_alerts = after.alerts - before.alerts;
    new_unscored = after.unscored_windows - before.unscored_windows;
    const auto& reports = session.station().reports();
    for (std::size_t i = reports.size() - new_windows; i < reports.size();
         ++i) {
      if (reports[i].degraded) ++new_degraded;
      if (config_.durability) {
        // Journaled under the shard lock into this core's own segment: the
        // append happens-before any checkpoint snapshot of this session,
        // which is the WAL invariant recovery depends on.
        config_.durability->on_verdict(env.user_id, reports[i], health,
                                       self.index);
      }
    }
  }();
  const auto end = std::chrono::steady_clock::now();
  if (new_windows > 0) {
    windows_->add(new_windows);
    alerts_->add(new_alerts);
    degraded_->add(new_degraded);
    unscored_windows_->add(new_unscored);
    // Detection latency: the reassemble-and-classify cost of the packet
    // that completed the window(s); queue wait is reported separately by
    // the end-to-end histogram.
    detect_latency_->observe_us(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  e2e_latency_->observe_us(
      std::chrono::duration<double, std::micro>(end - env.enqueued).count());
}

void FleetEngine::drain() {
  std::call_once(drain_once_, [this] {
    // 1. Stop accepting: every producer re-checks draining_ after raising
    //    its in_flight count, so once we observe in_flight == 0 on every
    //    slot, all envelopes that will ever exist are already in a ring
    //    (blocked kBlock producers also watch draining_ and bail).
    draining_.store(true, std::memory_order_seq_cst);
    for (auto& slot : slots_) {
      while (slot->in_flight.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    }
    // 2. Stop the workers: each runs one final sweep after observing the
    //    flag, so everything enqueued above is processed, not stranded.
    stop_requested_.store(true, std::memory_order_release);
    for (auto& state : worker_states_) {
      state->signal.fetch_add(1, std::memory_order_seq_cst);
      std::lock_guard lock(state->mu);
      state->cv.notify_all();
    }
    for (auto& t : threads_) t.join();
  });
}

std::size_t FleetEngine::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& w : worker_states_) depth += inbound_depth(*w);
  return depth;
}

std::string FleetEngine::metrics_json() {
  metrics_.gauge("fleet.queue_depth")
      .set(static_cast<std::int64_t>(queue_depth()));
  metrics_.gauge("fleet.workers")
      .set(static_cast<std::int64_t>(worker_states_.size()));
  for (const auto& w : worker_states_) {
    metrics_.gauge("fleet.worker." + std::to_string(w->index) + ".ring_depth")
        .set(static_cast<std::int64_t>(inbound_depth(*w)));
  }
  metrics_.gauge("fleet.sessions_active")
      .set(static_cast<std::int64_t>(table_.active_sessions()));
  metrics_.gauge("fleet.sessions_created")
      .set(static_cast<std::int64_t>(table_.sessions_created()));
  metrics_.gauge("fleet.models_resident")
      .set(static_cast<std::int64_t>(registry_.resident()));
  metrics_.gauge("fleet.model_hits")
      .set(static_cast<std::int64_t>(registry_.hits()));
  metrics_.gauge("fleet.model_misses")
      .set(static_cast<std::int64_t>(registry_.misses()));
  metrics_.gauge("fleet.model_evictions")
      .set(static_cast<std::int64_t>(registry_.evictions()));
  // Self-healing surface: breaker + provider retry behaviour.
  metrics_.gauge("fleet.breaker_open")
      .set(static_cast<std::int64_t>(registry_.open_breakers()));
  metrics_.gauge("fleet.breaker_opens_total")
      .set(static_cast<std::int64_t>(registry_.breaker_opens()));
  metrics_.gauge("fleet.provider_retries")
      .set(static_cast<std::int64_t>(registry_.provider_retries()));
  metrics_.gauge("fleet.provider_failures")
      .set(static_cast<std::int64_t>(registry_.provider_failures()));

  // Station-level aggregates (reassembly health across every session),
  // plus the anti-replay surface: suspect sessions currently shedding and a
  // per-user seq-anomaly breakdown (only wearers with anomalies appear, so
  // the snapshot stays bounded by offenders, not fleet size).
  wiot::BaseStation::Stats total;
  std::int64_t unscored_sessions = 0;
  std::int64_t suspect_active = 0;
  table_.for_each([&](int user, const Session& session) {
    const auto& s = session.stats();
    total.packets_received += s.packets_received;
    total.duplicates_ignored += s.duplicates_ignored;
    total.malformed_rejected += s.malformed_rejected;
    total.seq_rejected += s.seq_rejected;
    total.gaps_filled += s.gaps_filled;
    total.overflow_dropped += s.overflow_dropped;
    if (!session.scored()) ++unscored_sessions;
    const Session::Health& h = session.health();
    if (h.quarantined && h.suspect_entries > 0) ++suspect_active;
    if (h.seq_anomalies > 0) {
      metrics_.gauge("fleet.user." + std::to_string(user) + ".seq_anomalies")
          .set(static_cast<std::int64_t>(h.seq_anomalies));
    }
  });
  metrics_.gauge("fleet.suspect_sessions_active").set(suspect_active);
  metrics_.gauge("fleet.station.packets_received")
      .set(static_cast<std::int64_t>(total.packets_received));
  metrics_.gauge("fleet.station.duplicates_ignored")
      .set(static_cast<std::int64_t>(total.duplicates_ignored));
  metrics_.gauge("fleet.station.malformed_rejected")
      .set(static_cast<std::int64_t>(total.malformed_rejected));
  metrics_.gauge("fleet.station.seq_rejected")
      .set(static_cast<std::int64_t>(total.seq_rejected));
  metrics_.gauge("fleet.station.gaps_filled")
      .set(static_cast<std::int64_t>(total.gaps_filled));
  metrics_.gauge("fleet.station.overflow_dropped")
      .set(static_cast<std::int64_t>(total.overflow_dropped));
  metrics_.gauge("fleet.sessions_unscored").set(unscored_sessions);

  if (config_.durability) {
    durable::Durability& d = *config_.durability;
    metrics_.gauge("fleet.checkpoints_written")
        .set(static_cast<std::int64_t>(d.checkpoints_written()));
    metrics_.gauge("fleet.journal_bytes")
        .set(static_cast<std::int64_t>(d.journal_bytes()));
    metrics_.gauge("fleet.journal_segments")
        .set(static_cast<std::int64_t>(d.segment_count()));
    metrics_.gauge("fleet.frames_replayed")
        .set(static_cast<std::int64_t>(d.frames_replayed()));
    metrics_.gauge("fleet.frames_discarded_torn")
        .set(static_cast<std::int64_t>(d.frames_discarded_torn()));
  }
  return metrics_.snapshot_json();
}

}  // namespace sift::fleet
