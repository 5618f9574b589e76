// Shard: one worker's slice of the sharded serving runtime.
//
// The server (serving/server.hpp) partitions sessions across N workers by
// consistent hashing on the session id; everything a worker owns lives
// here. A shard is:
//
//   - a bounded MPMC work queue of WorkItems (the admission queue — full
//     queue means an immediate, explicit rejection, exactly the PR-5
//     backpressure contract, with the same queue-time accounting rules:
//     rejected and expired-in-queue items never pollute the service
//     means);
//   - per-tenant admission quotas layered on top: a tenant may only have
//     so many items queued at once, so one chatty tenant cannot occupy
//     the whole queue and starve its neighbors;
//   - its own circuit breaker (optional): the breaker observes only this
//     shard's primary-path outcomes, so a fault localized to one worker's
//     traffic degrades one shard, not the fleet;
//   - a cross-session micro-batcher: admitted items are coalesced into
//     batches of up to `batch_max`, released either when the batch is
//     full or when the oldest item has waited `batch_window_us` — the
//     classic size-or-timeout window. Batches feed score_batch, whose
//     per-request owned rngs make results independent of batch
//     composition, which is what keeps fleet scoring bit-identical across
//     worker counts and window settings.
//
// The queue interface is deliberately queue-agnostic (WorkQueue is
// abstract); MutexRingQueue is the stock finely-locked implementation.
// Shard methods are individually thread-safe (submit from any thread);
// batch formation is designed for ONE drainer per shard at a time.
// The shard itself is core-free: outcomes are reported back through the
// TrialOutcome enum, never through core types; only the Server above it
// scores.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "serving/circuit_breaker.hpp"
#include "serving/session_slab.hpp"

namespace vibguard::serving {

/// Sentinel deadline: the item never expires.
inline constexpr std::uint64_t kNoDeadline = UINT64_MAX;

/// One queued unit of work. The shard never looks inside the request —
/// `payload` is an opaque index the server uses to find the borrowed
/// signals — so this stays a small POD that queues by value.
struct WorkItem {
  std::uint64_t session_id = 0;
  std::uint64_t request_id = 0;
  SessionHandle session;       ///< slab handle (server-side bookkeeping)
  std::uint32_t tenant = 0;
  std::size_t payload = 0;     ///< server-owned request storage index
  std::uint64_t enqueued_us = 0;              ///< stamped by submit()
  std::uint64_t deadline_at_us = kNoDeadline; ///< absolute, on the clock
  /// Set by form_batch: the item's deadline had already passed at batch
  /// formation (it was accounted as expired, not dequeued).
  bool expired_in_queue = false;
  /// Times this item was re-homed by a ring resize (dead-worker failover
  /// or worker growth) before being served.
  std::uint32_t migrations = 0;
  /// The item was moved off its session's owner shard by work stealing
  /// (Server::steal_work); its session record still lives on the owner.
  bool stolen = false;
};

/// Bounded multi-producer queue of WorkItems. Implementations must be
/// individually thread-safe per call; FIFO order is part of the contract
/// (the micro-batch window is defined by the oldest item).
///
/// Lifecycle: a queue starts open and can be close()d exactly once —
/// after that every push is rejected (never blocked, never silently
/// queued) while pops keep draining whatever was already accepted. close()
/// must wake every consumer blocked in pop_blocking so a shard being
/// retired can never strand a parked drainer thread.
class WorkQueue {
 public:
  virtual ~WorkQueue() = default;

  /// False when full or closed (the caller turns that into a rejection).
  virtual bool try_push(const WorkItem& item) = 0;
  /// Pops the oldest item; false when empty.
  virtual bool try_pop(WorkItem& out) = 0;
  /// Blocks until an item is available or the queue is closed; false only
  /// when the queue is closed AND drained (every accepted item has been
  /// handed out).
  virtual bool pop_blocking(WorkItem& out) = 0;
  /// Copies the oldest item without popping; false when empty.
  virtual bool try_peek(WorkItem& out) const = 0;
  /// Rejects all future pushes and wakes every blocked consumer.
  /// Idempotent.
  virtual void close() = 0;
  virtual bool closed() const = 0;

  virtual std::size_t size() const = 0;
  virtual std::size_t capacity() const = 0;
};

/// Stock WorkQueue: a fixed-capacity ring buffer under one mutex. Plenty
/// for per-shard queues (the lock is per shard, not per fleet); anything
/// fancier can slot in behind the same interface.
class MutexRingQueue final : public WorkQueue {
 public:
  explicit MutexRingQueue(std::size_t capacity);

  bool try_push(const WorkItem& item) override;
  bool try_pop(WorkItem& out) override;
  bool pop_blocking(WorkItem& out) override;
  bool try_peek(WorkItem& out) const override;
  void close() override;
  bool closed() const override;
  std::size_t size() const override;
  std::size_t capacity() const override { return ring_.size(); }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signaled on push and on close
  std::vector<WorkItem> ring_;
  std::size_t head_ = 0;   ///< index of the oldest item
  std::size_t count_ = 0;
  bool closed_ = false;
};

/// Per-tenant queued-item quotas. A tenant's in-queue count is charged at
/// submit and released at pop; submissions beyond the quota are rejected
/// before they touch the queue. Deterministic iteration (std::map) so
/// per-tenant summaries render in stable order. Not internally locked —
/// the owning Shard serializes access.
class TenantQuotas {
 public:
  /// `default_max` applies to tenants with no explicit quota;
  /// SIZE_MAX (the default) disables quota checks entirely.
  explicit TenantQuotas(std::size_t default_max = SIZE_MAX);

  void set_quota(std::uint32_t tenant, std::size_t max_queued);

  /// Charges one queued item to `tenant`; false (and a rejection tally)
  /// when the tenant is at quota.
  bool try_charge(std::uint32_t tenant);
  /// Charges one queued item to `tenant` unconditionally — used when a
  /// ring resize re-homes an already-admitted item onto this shard: the
  /// work passed admission once fleet-wide, so migration must not be able
  /// to drop it on a quota technicality, but the count must stay balanced
  /// against the release() at dequeue.
  void charge_unchecked(std::uint32_t tenant);
  /// Releases one queued item (pop, or push failure after a charge).
  void release(std::uint32_t tenant);

  std::size_t queued(std::uint32_t tenant) const;
  std::uint64_t rejected(std::uint32_t tenant) const;
  std::uint64_t total_rejected() const { return total_rejected_; }

 private:
  struct State {
    std::size_t max_queued;
    std::size_t queued = 0;
    std::uint64_t rejected = 0;
  };
  State& state(std::uint32_t tenant);

  std::size_t default_max_;
  std::map<std::uint32_t, State> tenants_;
  std::uint64_t total_rejected_ = 0;
};

/// Consistent-hash ring mapping 64-bit hashes to workers. Each worker
/// contributes `replicas` points placed by a splitmix64 mix of
/// (worker, replica); a key is served by the first point clockwise from
/// its hash. A worker's points are a pure function of (worker, replicas),
/// so the ring supports deterministic resize: adding or removing one
/// worker moves only the keys in that worker's arcs, and a ring built
/// incrementally is point-for-point identical to one constructed with the
/// same active set — which the resize property tests pin. Not internally
/// locked; the Server serializes resize against placement reads.
class ConsistentHashRing {
 public:
  ConsistentHashRing(std::size_t workers, std::size_t replicas);

  /// Active (placeable) worker count.
  std::size_t workers() const { return active_.size(); }
  std::size_t replicas() const { return replicas_; }

  bool contains(std::size_t worker) const;
  /// Sorted active worker indices.
  std::vector<std::size_t> active_workers() const;

  /// Inserts worker `w`'s replica points (must not already be present).
  void add_worker(std::size_t w);
  /// Removes worker `w`'s points; the last worker cannot be removed (an
  /// empty ring places nothing).
  void remove_worker(std::size_t w);

  /// The worker owning 64-bit key hash `h`.
  std::size_t worker_for(std::uint64_t h) const;

  /// One replica point. Public only so the implementation's comparator
  /// can name it; not part of the placement API.
  struct Point {
    std::uint64_t hash;
    std::uint32_t worker;
  };

 private:
  std::size_t replicas_;
  std::vector<Point> points_;        ///< sorted by (hash, worker)
  std::vector<std::uint32_t> active_;  ///< sorted active worker indices
};

/// splitmix64 finalizer — the ring's key hash (and the server's session
/// hash). Public so tests can pin placements.
std::uint64_t mix64(std::uint64_t x);

struct ShardConfig {
  std::size_t queue_capacity = 64;
  /// Micro-batch limits: a batch is released when it holds `batch_max`
  /// items or the oldest admitted item has waited `batch_window_us`.
  /// window 0 = no coalescing delay (each pump drains what is queued,
  /// still up to batch_max at a time).
  std::size_t batch_max = 8;
  std::uint64_t batch_window_us = 0;
  /// Default per-tenant queued-item quota (SIZE_MAX = unlimited).
  std::size_t tenant_max_queued = SIZE_MAX;
  /// Per-shard circuit breaker; nullopt disables.
  std::optional<BreakerConfig> breaker;
};

enum class SubmitStatus {
  kQueued,
  kRejectedQueueFull,    ///< bounded-queue backpressure
  kRejectedTenantQuota,  ///< tenant at its queued-item quota
  kStaleSession,         ///< session handle no longer valid (server-level)
  kRejectedClosed,       ///< shard retired/draining: explicit rejection
};

const char* submit_status_name(SubmitStatus status);

/// How one primary-path trial ended, as far as the breaker cares. The
/// server maps core ScoreStatus onto this so the shard stays core-free.
/// One trial reports exactly one outcome, no matter how many stages it
/// failed in.
enum class TrialOutcome {
  kSuccess,
  kHardFailure,    ///< stage error / deadline expiry (indicts the shard)
  kIndeterminate,  ///< quality-gated input (neutral; releases a probe)
};

/// A shard's admission and queue-time accounting. The queue-time
/// aggregates (total/max/mean) cover only items dequeued for service:
/// rejected submissions never enter the queue, and items whose deadline
/// expired while queued are tallied in `expired` — neither can pollute the
/// mean queue time of the items the worker actually ran.
struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dequeued = 0;  ///< dequeued for service (excludes expired)
  std::uint64_t expired = 0;   ///< dropped: deadline passed while queued
  /// Items removed by a peer's work steal (see Shard::steal_batch). Stolen
  /// items leave this queue unserved, so they never touch the queue-time
  /// aggregates here — their wait keeps accruing and is accounted where
  /// they are finally dequeued.
  std::uint64_t stolen = 0;
  std::uint64_t total_queue_us = 0;  ///< summed over dequeued items
  std::uint64_t max_queue_us = 0;

  double mean_queue_us() const {
    return dequeued > 0 ? static_cast<double>(total_queue_us) /
                              static_cast<double>(dequeued)
                        : 0.0;
  }
};

struct ShardStats {
  AdmissionStats admission;
  std::uint64_t quota_rejected = 0;  ///< tenant-quota rejections
  std::uint64_t closed_rejected = 0; ///< submits refused after close()
  std::uint64_t migrated_in = 0;     ///< items re-homed here by a resize
  std::uint64_t batches = 0;         ///< batches formed
  std::uint64_t batched_items = 0;   ///< items across all batches
  std::uint64_t max_batch = 0;
  std::uint64_t probes = 0;          ///< half-open probe batches (size 1)
  /// Work-stealing accounting (victim-side item counts live in
  /// admission.stolen). Stolen items never touch the queue-time means of
  /// either shard at steal time — their queue_us accrues until the thief
  /// actually dequeues them for service.
  std::uint64_t steals_out = 0;      ///< steal_batch calls that took items
  std::uint64_t items_stolen_in = 0; ///< items this shard accepted via steal_in

  double mean_batch() const {
    return batches > 0 ? static_cast<double>(batched_items) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

/// A formed micro-batch: items to score plus the routing decision.
struct FormedBatch {
  bool degraded = false;  ///< breaker routed this batch off the primary
  bool probe = false;     ///< half-open probe (batch capped at one item)
  std::size_t items = 0;  ///< number of items written to the caller's out
  std::uint64_t now_us = 0;  ///< formation time (queue_us = now - enqueued)
};

/// Knobs for the thread-per-worker pump loop (Shard::run_pump).
struct PumpConfig {
  /// Upper bound on one pump sleep: the loop wakes at least this often to
  /// re-check the stop flag and stamp its heartbeat, so a supervisor can
  /// tell "idle but alive" from "wedged" at this granularity.
  std::uint64_t idle_poll_us = 1'000;
};

class Shard {
 public:
  Shard(ShardConfig config, const Clock& clock);

  const ShardConfig& config() const { return config_; }

  /// Admits one item: tenant quota first, then the bounded queue; stamps
  /// enqueued_us on success. Thread-safe (any producer).
  SubmitStatus submit(WorkItem item);

  /// Re-homes an already-admitted item onto this shard after a ring
  /// resize: bypasses the tenant quota check (the item was admitted once
  /// fleet-wide) but still charges the count, and preserves the original
  /// enqueued_us so queue-time accounting spans the migration. False when
  /// the bounded queue is full or closed — the caller must then account
  /// the item explicitly (it is never silently dropped).
  /// `count_migration` is false when a growth resize restores an item to
  /// the very shard it came from (the item did not actually move, so the
  /// migrated_in stat must not count it).
  bool requeue(const WorkItem& item, bool count_migration = true);

  /// Pops every queued item (FIFO, releasing tenant charges) into `out`
  /// without touching the dequeue/queue-time accounting — the items are
  /// being migrated, not served. Used with close() when retiring a shard.
  std::size_t take_all(std::vector<WorkItem>& out);

  /// Work stealing, victim side: pops up to `max_items` of the OLDEST
  /// queued items (FIFO head — the ones most at risk of expiring) into
  /// `out` under the victim's lock, releasing their tenant charges and
  /// preserving enqueued_us so queue-time accounting spans the steal.
  /// Items whose deadline has already passed are popped along the way,
  /// flagged expired_in_queue and appended to `expired_out` (accounted in
  /// admission.expired, exactly like form_batch) — the caller must emit a
  /// result for them; they do not count against `max_items`. Items parked
  /// in a formed-but-uncompleted batch are not in the queue and can never
  /// be stolen. Returns the number of stealable items written to `out`.
  std::size_t steal_batch(std::vector<WorkItem>& out,
                          std::vector<WorkItem>& expired_out,
                          std::size_t max_items);

  /// Work stealing, thief side: accepts a stolen item. Unlike requeue(),
  /// the thief's tenant quota IS enforced (try_charge) — stealing is an
  /// optimization, so it must not let a tenant overfill a neighbor shard
  /// it was never placed on. enqueued_us is preserved. False when the
  /// shard is closed, the tenant is at quota, or the queue is full; the
  /// caller then returns the item to the victim (or accounts it).
  bool steal_in(const WorkItem& item);

  /// Retires the shard: every future submit is rejected with
  /// kRejectedClosed and any consumer blocked on the queue is woken.
  /// Items already queued stay poppable (take_all / form_batch drain
  /// them). Idempotent.
  void close();
  bool is_closed() const;

  /// Stamps this worker's liveness heartbeat at the clock's current time
  /// under the CURRENT epoch. The pump calls it every loop iteration
  /// (including idle ones); the discrete-event simulator calls it wherever
  /// the pump would. Lock-free.
  void beat();
  /// Epoch-gated heartbeat: stamps only when `epoch` is still the shard's
  /// current epoch; a beat from a fenced (pre-restart) pump is discarded
  /// so a stale thread can never fake recovery. Returns whether the beat
  /// was accepted — a pump uses `false` as its exit signal.
  bool beat(std::uint64_t epoch);
  /// Clock time of the most recent accepted beat (construction time before
  /// any).
  std::uint64_t last_beat_us() const;
  /// Total accepted beats since construction (a progress odometer).
  std::uint64_t beats() const;

  /// The current heartbeat epoch. A restart bumps it (bump_epoch) so the
  /// supervisor can distinguish "the fresh pump is beating" from "the old
  /// wedged thread twitched": recovery requires last_beat_epoch() to match
  /// the post-restart epoch.
  std::uint64_t epoch() const;
  /// The epoch the most recent accepted beat was stamped under.
  std::uint64_t last_beat_epoch() const;
  /// Advances the epoch, fencing every pump started under older epochs
  /// (their epoch-gated beats are rejected and they exit). Returns the new
  /// epoch. The beat fields are relaxed atomics written in (epoch, time)
  /// order; a torn read across a racing bump is always conservative — it
  /// can only make a worker look *less* recovered, never more.
  std::uint64_t bump_epoch();

  /// The real thread-per-worker pump loop, run on the calling thread. Each
  /// iteration stamps the heartbeat, then either sleeps toward the next
  /// batch-ready time (in slices of pump.idle_poll_us so stop stays
  /// responsive) or invokes `drain_once(force)` — the server's bound
  /// form-batch + complete-batch step for this worker, returning whether a
  /// batch was served. On `stop` the loop force-drains everything still
  /// queued before returning; on a closed-and-empty shard it returns
  /// immediately. The loop captures the shard epoch at entry and beats
  /// through the epoch gate: a bump_epoch() (pump restart) fences it out
  /// at its next iteration. Returns the number of batches drained. One
  /// *current-epoch* pump per shard at a time (the one-drainer contract).
  std::size_t run_pump(const std::function<bool(bool force)>& drain_once,
                       const std::atomic<bool>& stop,
                       const PumpConfig& pump = {});

  /// When the next batch should be formed, on the shard clock: nullopt
  /// when the queue is empty; the oldest item's enqueue time when the
  /// batch is already full-sized (due immediately); otherwise oldest
  /// enqueue + batch_window_us. The server's pump sleeps until the
  /// earliest ready time across its shards.
  std::optional<std::uint64_t> batch_ready_us() const;

  /// Forms the next micro-batch into `out` (appended; caller clears).
  /// Returns nullopt when the queue is empty or — unless `force` — the
  /// window has not elapsed and the batch is not full. Routing: with a
  /// breaker, an open shard forms degraded batches; a half-open shard
  /// forms a single-item probe batch (at most one outstanding at a time,
  /// further items keep forming degraded batches until the probe
  /// resolves). Expired items (deadline_at_us <= now) are still included
  /// — the server must emit a result for them — but are accounted as
  /// expired, not as service dequeues, and do not touch the queue-time
  /// means. One drainer per shard at a time.
  std::optional<FormedBatch> form_batch(std::vector<WorkItem>& out,
                                        bool force = false);

  /// Reports one primary-path trial outcome to the shard breaker (no-op
  /// without one). `stage` keys hard failures as in CircuitBreaker.
  void record(TrialOutcome outcome, const std::string& stage);

  std::size_t depth() const;
  /// Enqueue time of the oldest queued item; nullopt when empty. The
  /// supervisor's overload score reads (now - oldest) as its queue-age
  /// signal — the wait of the item that has waited longest.
  std::optional<std::uint64_t> oldest_enqueued_us() const;
  ShardStats stats() const;
  const CircuitBreaker* breaker() const {
    return breaker_.has_value() ? &*breaker_ : nullptr;
  }
  TenantQuotas& quotas() { return quotas_; }

 private:
  ShardConfig config_;
  const Clock* clock_;
  mutable std::mutex mu_;  ///< quotas, stats, breaker, batch decisions
  std::unique_ptr<WorkQueue> queue_;
  TenantQuotas quotas_;
  std::optional<CircuitBreaker> breaker_;
  ShardStats stats_;
  std::atomic<std::uint64_t> last_beat_us_{0};
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> last_beat_epoch_{0};
};

}  // namespace vibguard::serving
