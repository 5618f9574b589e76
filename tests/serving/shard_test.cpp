#include "serving/shard.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace vibguard::serving {
namespace {

WorkItem item_for(std::uint64_t request_id,
                  std::uint64_t deadline_at_us = kNoDeadline) {
  WorkItem item;
  item.session_id = 1000 + request_id;
  item.request_id = request_id;
  item.deadline_at_us = deadline_at_us;
  return item;
}

TEST(WorkRingTest, FifoPushPopPeek) {
  WorkRing queue(3);
  EXPECT_EQ(queue.capacity(), 3u);
  WorkItem out;
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_FALSE(queue.try_peek(out));

  EXPECT_TRUE(queue.try_push(item_for(1)));
  EXPECT_TRUE(queue.try_push(item_for(2)));
  EXPECT_TRUE(queue.try_push(item_for(3)));
  EXPECT_FALSE(queue.try_push(item_for(4)));  // full
  EXPECT_EQ(queue.size(), 3u);

  ASSERT_TRUE(queue.try_peek(out));
  EXPECT_EQ(out.request_id, 1u);
  EXPECT_EQ(queue.size(), 3u);  // peek does not consume

  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.request_id, 1u);
  EXPECT_TRUE(queue.try_push(item_for(4)));  // ring wraps
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.request_id, 2u);
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.request_id, 3u);
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.request_id, 4u);
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(WorkRingTest, ZeroCapacityRejectsEveryPush) {
  WorkRing queue(0);
  EXPECT_FALSE(queue.try_push(item_for(1)));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(ConsistentHashRingTest, PlacementIsAPureFunctionOfConfiguration) {
  ConsistentHashRing a(4, 64);
  ConsistentHashRing b(4, 64);
  for (std::uint64_t id = 0; id < 500; ++id) {
    const std::uint64_t h = mix64(id);
    EXPECT_EQ(a.worker_for(h), b.worker_for(h));
    EXPECT_LT(a.worker_for(h), 4u);
  }
}

TEST(ConsistentHashRingTest, SingleWorkerOwnsEverything) {
  ConsistentHashRing ring(1, 8);
  for (std::uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(ring.worker_for(mix64(id)), 0u);
  }
}

TEST(ConsistentHashRingTest, EveryWorkerGetsTraffic) {
  ConsistentHashRing ring(8, 64);
  std::set<std::size_t> seen;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    seen.insert(ring.worker_for(mix64(id)));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ConsistentHashRingTest, AddingAWorkerMovesOnlySomeKeys) {
  // The consistency property: growing the fleet by one worker must leave
  // most keys on their old worker (only the new worker's arcs move).
  ConsistentHashRing before(4, 64);
  ConsistentHashRing after(5, 64);
  std::size_t moved = 0;
  const std::size_t keys = 2000;
  for (std::uint64_t id = 0; id < keys; ++id) {
    const std::uint64_t h = mix64(id);
    const std::size_t to = after.worker_for(h);
    if (to != before.worker_for(h)) {
      ++moved;
      EXPECT_EQ(to, 4u) << "keys may move only to the new worker";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys / 2);  // ~1/5 expected; far less than a rehash
}

ShardConfig small_shard() {
  ShardConfig cfg;
  cfg.queue_capacity = 4;
  cfg.batch_max = 3;
  cfg.batch_window_us = 1000;
  return cfg;
}

TEST(ShardTest, QueueFullIsAnExplicitRejection) {
  VirtualClock clock;
  Shard shard(small_shard(), clock);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(shard.submit(item_for(i)), SubmitStatus::kQueued);
  }
  EXPECT_EQ(shard.submit(item_for(4)), SubmitStatus::kRejectedQueueFull);
  EXPECT_EQ(shard.stats().admitted, 4u);
  EXPECT_EQ(shard.stats().rejected, 1u);

  // Capacity 0 is a legal "admit nothing" shard: every submit is a clean,
  // counted rejection, and the queue-time means stay well defined.
  ShardConfig closed_cfg = small_shard();
  closed_cfg.queue_capacity = 0;
  Shard closed(closed_cfg, clock);
  EXPECT_EQ(closed.submit(item_for(0)), SubmitStatus::kRejectedQueueFull);
  EXPECT_EQ(closed.submit(item_for(1)), SubmitStatus::kRejectedQueueFull);
  const ShardStats stats = closed.stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.dequeued, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 0.0);
  std::vector<WorkItem> batch;
  EXPECT_FALSE(closed.form_batch(batch, /*force=*/true).has_value());
}

TEST(ShardTest, QueueCapacityAboveTheMaximumIsRejected) {
  // The ring preallocates every slot, so an oversized capacity is a usage
  // error, not an allocation attempt.
  VirtualClock clock;
  ShardConfig cfg = small_shard();
  cfg.queue_capacity = kMaxQueueCapacity;
  EXPECT_NO_THROW(Shard(cfg, clock));
  cfg.queue_capacity = kMaxQueueCapacity + 1;
  EXPECT_THROW(Shard(cfg, clock), InvalidArgument);
}

TEST(ShardTest, BatchReleasesOnWindowOrSize) {
  VirtualClock clock;
  Shard shard(small_shard(), clock);  // batch_max 3, window 1000us
  std::vector<WorkItem> batch;

  EXPECT_FALSE(shard.batch_ready_us().has_value());  // empty queue
  shard.submit(item_for(0));
  ASSERT_TRUE(shard.batch_ready_us().has_value());
  EXPECT_EQ(*shard.batch_ready_us(), clock.now_us() + 1000);
  EXPECT_FALSE(shard.form_batch(batch).has_value());  // window not elapsed

  clock.advance(1000);  // oldest item has waited the full window
  auto formed = shard.form_batch(batch);
  ASSERT_TRUE(formed.has_value());
  EXPECT_EQ(formed->items, 1u);
  EXPECT_EQ(batch.size(), 1u);

  // A full batch is due immediately, window or not.
  batch.clear();
  for (std::uint64_t i = 1; i <= 3; ++i) shard.submit(item_for(i));
  EXPECT_EQ(*shard.batch_ready_us(), clock.now_us());
  formed = shard.form_batch(batch);
  ASSERT_TRUE(formed.has_value());
  EXPECT_EQ(formed->items, 3u);
  EXPECT_EQ(batch[0].request_id, 1u);  // FIFO within the batch
  EXPECT_EQ(batch[2].request_id, 3u);

  const ShardStats stats = shard.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batched_items, 4u);
  EXPECT_EQ(stats.max_batch, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_batch(), 2.0);
}

TEST(ShardTest, ExpiredItemsAreFlaggedAndExcludedFromQueueMeans) {
  VirtualClock clock;
  clock.advance(1000);
  Shard shard(small_shard(), clock);
  shard.submit(item_for(0, /*deadline_at_us=*/clock.now_us() + 500));
  shard.submit(item_for(1, /*deadline_at_us=*/clock.now_us() + 50'000));
  clock.advance(500);
  shard.submit(item_for(2, /*deadline_at_us=*/clock.now_us() + 50'000));
  clock.advance(1500);  // request 0 expired; requests 1 and 2 still live

  std::vector<WorkItem> batch;
  const auto formed = shard.form_batch(batch, /*force=*/true);
  ASSERT_TRUE(formed.has_value());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].expired_in_queue);
  EXPECT_FALSE(batch[1].expired_in_queue);
  EXPECT_FALSE(batch[2].expired_in_queue);

  // Per-item waits 2000 and 1500 us: the aggregates cover exactly the two
  // live items, max and mean alike.
  const ShardStats stats = shard.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.dequeued, 2u);  // only the live items
  EXPECT_EQ(stats.total_queue_us, 3500u);
  EXPECT_EQ(stats.max_queue_us, 2000u);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 1750.0);
}

TEST(ShardTest, BreakerRoutesDegradedThenSingleItemProbe) {
  VirtualClock clock;
  ShardConfig cfg = small_shard();
  cfg.breaker = BreakerConfig{/*failure_threshold=*/2,
                              /*cooldown_us=*/10'000};
  Shard shard(cfg, clock);

  // Trip the breaker with two hard failures.
  shard.record(TrialOutcome::kHardFailure);
  shard.record(TrialOutcome::kHardFailure);
  EXPECT_EQ(shard.stats().breaker_trips, 1u);

  // While open: batches form degraded.
  for (std::uint64_t i = 0; i < 3; ++i) shard.submit(item_for(i));
  std::vector<WorkItem> batch;
  auto formed = shard.form_batch(batch, /*force=*/true);
  ASSERT_TRUE(formed.has_value());
  EXPECT_TRUE(formed->degraded);
  EXPECT_FALSE(formed->probe);
  EXPECT_EQ(formed->items, 3u);

  // After the cooldown: a single-item probe batch, even with more queued.
  clock.advance(10'000);
  for (std::uint64_t i = 3; i < 6; ++i) shard.submit(item_for(i));
  batch.clear();
  formed = shard.form_batch(batch, /*force=*/true);
  ASSERT_TRUE(formed.has_value());
  EXPECT_TRUE(formed->probe);
  EXPECT_FALSE(formed->degraded);
  EXPECT_EQ(formed->items, 1u);

  // While the probe is outstanding the rest keeps draining degraded.
  batch.clear();
  formed = shard.form_batch(batch, /*force=*/true);
  ASSERT_TRUE(formed.has_value());
  EXPECT_TRUE(formed->degraded);
  EXPECT_EQ(formed->items, 2u);

  // Probe success closes the breaker: back to primary batches.
  shard.record(TrialOutcome::kSuccess);
  shard.submit(item_for(6));
  batch.clear();
  formed = shard.form_batch(batch, /*force=*/true);
  ASSERT_TRUE(formed.has_value());
  EXPECT_FALSE(formed->degraded);
  EXPECT_FALSE(formed->probe);
  EXPECT_EQ(shard.stats().probes, 1u);
}

TEST(ShardTest, ConcurrentSubmitsAccountExactly) {
  // The shard holds no lock; its owner's one mutex guards it, as the
  // server's lane mutex does. Hammer submit from several threads under
  // that mutex: every call must be either a counted admission or a
  // counted rejection, and the drained queue must hold exactly the
  // admissions, each once.
  VirtualClock clock;
  ShardConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batch_max = 8;
  Shard shard(cfg, clock);
  std::mutex owner;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shard, &owner, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::lock_guard<std::mutex> lock(owner);
        shard.submit(
            item_for(static_cast<std::uint64_t>(t * kPerThread + i)));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const ShardStats stats = shard.stats();
  EXPECT_EQ(stats.admitted + stats.rejected,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.admitted, 64u);  // bounded by capacity

  // Drain everything; items arrive exactly once.
  std::vector<WorkItem> drained;
  while (shard.form_batch(drained, /*force=*/true).has_value()) {
  }
  EXPECT_EQ(drained.size(), 64u);
  std::set<std::uint64_t> ids;
  for (const WorkItem& item : drained) ids.insert(item.request_id);
  EXPECT_EQ(ids.size(), drained.size());
  EXPECT_EQ(shard.stats().dequeued, 64u);
}

}  // namespace
}  // namespace vibguard::serving
