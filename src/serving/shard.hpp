// Shard: one worker's admission and batching policy in the sharded
// serving runtime.
//
// The server (serving/server.hpp) partitions sessions across a fixed set
// of workers by consistent hashing on the session id; each worker owns one
// shard. A shard is:
//
//   - a bounded FIFO work queue of WorkItems (the admission queue — full
//     queue means an immediate, explicit rejection, with queue-time
//     accounting that rejected and expired-in-queue items never pollute);
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
// A shard holds no lock: like the WorkRing inside it, it is guarded by its
// owner — the server's lane mutex — so one worker takes one lock. The
// shard itself is core-free: outcomes are reported back through the
// TrialOutcome enum, never through core types; only the Server above it
// scores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/clock.hpp"
#include "serving/circuit_breaker.hpp"

namespace vibguard::serving {

/// Sentinel deadline: the item never expires.
inline constexpr std::uint64_t kNoDeadline = UINT64_MAX;

/// Largest queue a shard accepts. The ring preallocates every slot, so a
/// larger capacity would request that much memory up front.
inline constexpr std::size_t kMaxQueueCapacity = 65'536;

/// One queued unit of work. The shard never looks inside the request —
/// `payload` is an opaque index the server uses to find the borrowed
/// signals — so this stays a small POD that queues by value.
struct WorkItem {
  std::uint64_t session_id = 0;
  std::uint64_t request_id = 0;
  std::size_t payload = 0;     ///< server-owned request storage index
  std::uint64_t enqueued_us = 0;              ///< stamped by submit()
  std::uint64_t deadline_at_us = kNoDeadline; ///< absolute, on the clock
  /// Set by form_batch: the item's deadline had already passed at batch
  /// formation (it was accounted as expired, not dequeued).
  bool expired_in_queue = false;
};

/// Fixed-capacity FIFO ring buffer of WorkItems, at most
/// kMaxQueueCapacity slots. Not locked: its owner guards it. FIFO order is
/// part of the contract (the micro-batch window is defined by the oldest
/// item).
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
  /// Queue bound, at most kMaxQueueCapacity.
  std::size_t queue_capacity = 64;
  /// Micro-batch limits: a batch is released when it holds `batch_max`
  /// items or the oldest admitted item has waited `batch_window_us`.
  /// window 0 = no coalescing delay (each pump drains what is queued,
  /// still up to batch_max at a time).
  std::size_t batch_max = 8;
  std::uint64_t batch_window_us = 0;
  /// Per-shard circuit breaker; nullopt disables.
  std::optional<BreakerConfig> breaker;
};

enum class SubmitStatus {
  kQueued,
  kRejectedQueueFull,  ///< bounded-queue backpressure
  kStaleSession,       ///< session handle no longer valid (server-level)
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

/// A shard's admission, queue-time and batching counters. The queue-time
/// aggregates (total/max/mean) cover only items dequeued for service:
/// rejected submissions never enter the queue, and items whose deadline
/// expired while queued are tallied in `expired` — neither can pollute the
/// mean queue time of the items the worker actually ran.
struct ShardStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  ///< full queue
  std::uint64_t dequeued = 0;  ///< dequeued for service (excludes expired)
  std::uint64_t expired = 0;   ///< dropped: deadline passed while queued
  std::uint64_t total_queue_us = 0;  ///< summed over dequeued items
  std::uint64_t max_queue_us = 0;
  std::uint64_t batches = 0;         ///< batches formed
  std::uint64_t batched_items = 0;   ///< items across all batches
  std::uint64_t max_batch = 0;
  std::uint64_t probes = 0;          ///< half-open probe batches (size 1)
  std::uint64_t breaker_trips = 0;   ///< closed→open transitions

  double mean_queue_us() const {
    return dequeued > 0 ? static_cast<double>(total_queue_us) /
                              static_cast<double>(dequeued)
                        : 0.0;
  }
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
  /// Throws InvalidArgument when `config.queue_capacity` exceeds
  /// kMaxQueueCapacity or `config.batch_max` is 0.
  Shard(ShardConfig config, const Clock& clock);

  /// Admits one item into the bounded queue and stamps enqueued_us, or
  /// rejects it when the queue is full.
  SubmitStatus submit(WorkItem item);

  /// When the next batch should be formed, on the shard clock: nullopt
  /// when the queue is empty; the oldest item's enqueue time when the
  /// batch is already full-sized (due immediately); otherwise oldest
  /// enqueue + batch_window_us.
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
  /// means.
  std::optional<FormedBatch> form_batch(std::vector<WorkItem>& out,
                                        bool force = false);

  /// Reports one primary-path trial outcome to the shard breaker (no-op
  /// without one).
  void record(TrialOutcome outcome);

  /// The counters, with the breaker's trip count.
  ShardStats stats() const;

 private:
  ShardConfig config_;
  const Clock* clock_;
  WorkRing queue_;
  std::optional<CircuitBreaker> breaker_;
  ShardStats stats_;
};

}  // namespace vibguard::serving
