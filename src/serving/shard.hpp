// Shard: one worker's slice of the sharded serving runtime.
//
// The server (serving/server.hpp) partitions sessions across a fixed set
// of workers by consistent hashing on the session id; everything a worker
// owns lives here. A shard is:
//
//   - a bounded FIFO work queue of WorkItems (the admission queue — full
//     queue means an immediate, explicit rejection, with queue-time
//     accounting that rejected and expired-in-queue items never pollute);
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
//     worker counts and window settings;
//   - deadlines: an item whose budget passed while queued is handed out
//     flagged expired, never scored.
//
// One mutex guards the queue, the quotas, the breaker and the stats, so a
// submit takes exactly one lock here. Shard methods are individually
// thread-safe (submit from any thread); batch formation is designed for
// ONE drainer per shard at a time. The shard itself is core-free:
// outcomes are reported back through the TrialOutcome enum, never through
// core types; only the Server above it scores.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
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

/// Longest one pump sleep lasts, in microseconds on the shard clock: the
/// loop wakes at least this often to re-check its stop flag.
inline constexpr std::uint64_t kPumpIdlePollUs = 1'000;

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
};

/// Fixed-capacity FIFO ring buffer of WorkItems. Not locked: the owning
/// Shard guards it with its own mutex. FIFO order is part of the contract
/// (the micro-batch window is defined by the oldest item).
class WorkRing {
 public:
  explicit WorkRing(std::size_t capacity);

  /// False when full (the caller turns that into a rejection).
  bool try_push(const WorkItem& item);
  /// Pops the oldest item; false when empty.
  bool try_pop(WorkItem& out);
  /// Copies the oldest item without popping; false when empty.
  bool try_peek(WorkItem& out) const;

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }

 private:
  std::vector<WorkItem> ring_;
  std::size_t head_ = 0;   ///< index of the oldest item
  std::size_t count_ = 0;
};

/// Per-tenant queued-item quotas. A tenant's in-queue count is charged at
/// submit and released at pop; submissions beyond the quota are rejected
/// before they touch the queue. Deterministic iteration (std::map) so
/// per-tenant summaries render in stable order. Not internally locked —
/// the owning Shard serializes access.
class TenantQuotas {
 public:
  /// `default_max` applies to every tenant; SIZE_MAX (the default)
  /// disables quota checks entirely.
  explicit TenantQuotas(std::size_t default_max = SIZE_MAX);

  /// Charges one queued item to `tenant`; false (and a rejection tally)
  /// when the tenant is at quota.
  bool try_charge(std::uint32_t tenant);
  /// Releases one queued item (pop, or push failure after a charge).
  void release(std::uint32_t tenant);

  std::size_t queued(std::uint32_t tenant) const;
  std::uint64_t rejected(std::uint32_t tenant) const;
  std::uint64_t total_rejected() const { return total_rejected_; }

 private:
  struct State {
    std::size_t queued = 0;
    std::uint64_t rejected = 0;
  };

  std::size_t max_queued_;
  std::map<std::uint32_t, State> tenants_;
  std::uint64_t total_rejected_ = 0;
};

/// Consistent-hash ring mapping 64-bit hashes to a fixed set of workers.
/// Each worker contributes `replicas` points placed by a splitmix64 mix of
/// (worker, replica); a key is served by the first point clockwise from
/// its hash. The ring is built once and never changes, so placement is a
/// pure function of (workers, replicas) and needs no lock.
class ConsistentHashRing {
 public:
  ConsistentHashRing(std::size_t workers, std::size_t replicas);

  /// The worker owning 64-bit key hash `h`.
  std::size_t worker_for(std::uint64_t h) const;

  /// One replica point. Public only so the implementation's comparator
  /// can name it; not part of the placement API.
  struct Point {
    std::uint64_t hash;
    std::uint32_t worker;
  };

 private:
  std::vector<Point> points_;  ///< sorted by (hash, worker)
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
  /// Per-tenant queued-item quota (SIZE_MAX = unlimited).
  std::size_t tenant_max_queued = SIZE_MAX;
  /// Per-shard circuit breaker; nullopt disables.
  std::optional<BreakerConfig> breaker;
};

enum class SubmitStatus {
  kQueued,
  kRejectedQueueFull,    ///< bounded-queue backpressure
  kRejectedTenantQuota,  ///< tenant at its queued-item quota
  kStaleSession,         ///< session handle no longer valid (server-level)
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
  std::uint64_t batches = 0;         ///< batches formed
  std::uint64_t batched_items = 0;   ///< items across all batches
  std::uint64_t max_batch = 0;
  std::uint64_t probes = 0;          ///< half-open probe batches (size 1)

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

class Shard {
 public:
  Shard(ShardConfig config, const Clock& clock);

  const ShardConfig& config() const { return config_; }

  /// Admits one item: tenant quota first, then the bounded queue; stamps
  /// enqueued_us on success. Thread-safe (any producer).
  SubmitStatus submit(WorkItem item);

  /// The thread-per-worker pump loop, run on the calling thread. Each
  /// iteration either sleeps toward the next batch-ready time (in slices
  /// of at most kPumpIdlePollUs so stop stays responsive) or invokes
  /// `drain_once(force)` — the server's bound form-batch + complete-batch
  /// step for this worker, returning whether a batch was served. On `stop`
  /// the loop force-drains everything still queued before returning.
  /// Returns the number of batches drained. One pump per shard at a time
  /// (the one-drainer contract).
  std::size_t run_pump(const std::function<bool(bool force)>& drain_once,
                       const std::atomic<bool>& stop);

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
  ShardStats stats() const;
  const CircuitBreaker* breaker() const {
    return breaker_.has_value() ? &*breaker_ : nullptr;
  }

 private:
  /// Ready time of the batch the queue would form now; nullopt when
  /// empty. Caller holds mu_.
  std::optional<std::uint64_t> ready_locked() const;

  ShardConfig config_;
  const Clock* clock_;
  mutable std::mutex mu_;  ///< queue, quotas, stats, breaker
  WorkRing queue_;
  TenantQuotas quotas_;
  std::optional<CircuitBreaker> breaker_;
  ShardStats stats_;
};

}  // namespace vibguard::serving
