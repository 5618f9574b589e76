#include "serving/shard.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vibguard::serving {

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: cheap, well-mixed, and stable across platforms —
  // the ring placement (and therefore the whole fleet's session → worker
  // map) must never depend on std::hash implementation details.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

const char* submit_status_name(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kQueued: return "queued";
    case SubmitStatus::kRejectedQueueFull: return "rejected_queue_full";
    case SubmitStatus::kStaleSession: return "stale_session";
  }
  VIBGUARD_UNREACHABLE();
}

WorkRing::WorkRing(std::size_t capacity) {
  // Every slot is allocated here, up front: the bound keeps a mistyped
  // capacity a usage error instead of a giant allocation.
  VIBGUARD_REQUIRE(capacity <= kMaxQueueCapacity,
                   "queue capacity must be at most 65536");
  ring_.resize(capacity);
}

bool WorkRing::try_push(const WorkItem& item) {
  if (count_ >= ring_.size()) return false;
  ring_[(head_ + count_) % ring_.size()] = item;
  ++count_;
  return true;
}

bool WorkRing::try_pop(WorkItem& out) {
  if (count_ == 0) return false;
  out = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return true;
}

bool WorkRing::try_peek(WorkItem& out) const {
  if (count_ == 0) return false;
  out = ring_[head_];
  return true;
}

ConsistentHashRing::ConsistentHashRing(std::size_t workers,
                                       std::size_t replicas) {
  VIBGUARD_REQUIRE(workers > 0, "ring needs at least one worker");
  VIBGUARD_REQUIRE(workers < UINT32_MAX, "worker count out of range");
  VIBGUARD_REQUIRE(replicas > 0, "ring needs at least one replica");
  points_.reserve(workers * replicas);
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t r = 0; r < replicas; ++r) {
      points_.push_back({mix64((static_cast<std::uint64_t>(w) << 32) |
                               static_cast<std::uint64_t>(r)),
                         static_cast<std::uint32_t>(w)});
    }
  }
  // The worker index breaks hash ties, so the order — and with it the
  // placement — is identical on every platform.
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.worker < b.worker;
            });
}

std::size_t ConsistentHashRing::worker_for(std::uint64_t h) const {
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t key) { return p.hash < key; });
  // First point clockwise from h; past the last point wraps to the first.
  return it != points_.end() ? it->worker : points_.front().worker;
}

Shard::Shard(ShardConfig config, const Clock& clock)
    : config_(config), clock_(&clock), queue_(config.queue_capacity) {
  VIBGUARD_REQUIRE(config_.batch_max > 0, "batch size must be positive");
  if (config_.breaker.has_value()) {
    breaker_.emplace(*config_.breaker, clock);
  }
}

SubmitStatus Shard::submit(WorkItem item) {
  item.enqueued_us = clock_->now_us();
  if (!queue_.try_push(item)) {
    ++stats_.rejected;
    return SubmitStatus::kRejectedQueueFull;
  }
  ++stats_.admitted;
  return SubmitStatus::kQueued;
}

std::optional<std::uint64_t> Shard::batch_ready_us() const {
  WorkItem oldest;
  if (!queue_.try_peek(oldest)) return std::nullopt;
  if (queue_.size() >= config_.batch_max) return oldest.enqueued_us;
  return oldest.enqueued_us + config_.batch_window_us;
}

std::optional<FormedBatch> Shard::form_batch(std::vector<WorkItem>& out,
                                             bool force) {
  const auto ready = batch_ready_us();
  if (!ready.has_value()) return std::nullopt;
  const std::uint64_t now = clock_->now_us();
  if (!force && now < *ready) return std::nullopt;

  FormedBatch batch;
  if (breaker_.has_value()) {
    const BreakerState pre = breaker_->state();
    if (!breaker_->allow_primary()) {
      batch.degraded = true;
    } else if (pre != BreakerState::kClosed) {
      // A half-open (or just-cooled-down open) shard sends exactly one
      // item as the probe; coalescing more would make a multi-command
      // batch stand in for one probe outcome.
      batch.probe = true;
      ++stats_.probes;
    }
  }

  batch.now_us = now;
  const std::size_t limit = batch.probe ? 1 : config_.batch_max;
  WorkItem item;
  while (batch.items < limit && queue_.try_pop(item)) {
    if (item.deadline_at_us <= now) {
      // Expired while queued: still handed to the server (a result must
      // be emitted) but never counted as a service dequeue.
      item.expired_in_queue = true;
      ++stats_.expired;
    } else {
      const std::uint64_t queue_us =
          now >= item.enqueued_us ? now - item.enqueued_us : 0;
      ++stats_.dequeued;
      stats_.total_queue_us += queue_us;
      stats_.max_queue_us = std::max(stats_.max_queue_us, queue_us);
    }
    out.push_back(item);
    ++batch.items;
  }
  ++stats_.batches;
  stats_.batched_items += batch.items;
  stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch.items);
  return batch;
}

void Shard::record(TrialOutcome outcome) {
  if (!breaker_.has_value()) return;
  switch (outcome) {
    case TrialOutcome::kSuccess: breaker_->record_success(); return;
    case TrialOutcome::kHardFailure: breaker_->record_failure(); return;
    case TrialOutcome::kIndeterminate:
      breaker_->record_indeterminate();
      return;
  }
  VIBGUARD_UNREACHABLE();
}

ShardStats Shard::stats() const {
  ShardStats stats = stats_;
  if (breaker_.has_value()) stats.breaker_trips = breaker_->trips();
  return stats;
}

}  // namespace vibguard::serving
