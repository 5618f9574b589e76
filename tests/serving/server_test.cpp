#include "serving/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "attacks/attack.hpp"
#include "common/alloc_counter.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/segmentation.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard::serving {
namespace {

/// A small fixed population of rendered trials the determinism tests
/// replay through every sharding configuration. Rendered once per process
/// (the signals are borrowed by in-flight requests, so the fixture keeps
/// them alive for the whole test).
struct Population {
  struct Trial {
    eval::TrialRecordings recordings;
    std::unique_ptr<core::OracleSegmenter> segmenter;
  };
  std::vector<Trial> trials;

  static const Population& instance() {
    static Population* pop = [] {
      auto* p = new Population;
      eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 77);
      Rng rng(78);
      const auto user = speech::sample_speaker(speech::Sex::kFemale, rng);
      const auto adv = speech::sample_speaker(speech::Sex::kMale, rng);
      const auto& cmd = speech::command_by_text("unlock the front door");
      for (int i = 0; i < 6; ++i) {
        Trial trial;
        trial.recordings =
            i % 2 == 0 ? sim.legitimate_trial(cmd, user)
                       : sim.attack_trial(attacks::AttackType::kReplay, cmd,
                                          user, adv);
        trial.segmenter = std::make_unique<core::OracleSegmenter>(
            trial.recordings.alignment, eval::reference_sensitive_set());
        p->trials.push_back(std::move(trial));
      }
      return p;
    }();
    return *pop;
  }
};

/// Submits the whole population (request i → session i mod 3, each request
/// scoring from its own fork of a fixed base rng), drains, and returns the
/// request_id → score map.
std::map<std::uint64_t, double> serve_population(ServerConfig config) {
  const Population& pop = Population::instance();
  VirtualClock clock;
  Server server(config, clock);

  std::vector<std::uint64_t> session_ids = {501, 502, 503};
  std::vector<SessionHandle> handles;
  for (const std::uint64_t session_id : session_ids) {
    handles.push_back(server.open_session(session_id));
  }

  Rng base(99);
  for (std::size_t i = 0; i < pop.trials.size(); ++i) {
    const auto& trial = pop.trials[i];
    ServerRequest request;
    request.va = &trial.recordings.va;
    request.wearable = &trial.recordings.wearable;
    request.segmenter = trial.segmenter.get();
    request.rng = base.fork(i);
    request.request_id = i;
    const std::size_t s = i % session_ids.size();
    EXPECT_EQ(server.submit(session_ids[s], handles[s], request),
              SubmitStatus::kQueued);
    clock.advance(1000);  // stagger arrivals across the batch window
  }

  std::vector<ServedResult> results;
  server.drain(results);
  EXPECT_EQ(results.size(), pop.trials.size());

  std::map<std::uint64_t, double> scores;
  for (const ServedResult& r : results) {
    EXPECT_FALSE(r.expired_in_queue);
    EXPECT_EQ(r.outcome.status, core::ScoreStatus::kOk)
        << "request " << r.request_id << ": " << r.outcome.reason;
    scores[r.request_id] = r.outcome.score;
  }
  return scores;
}

TEST(ServerDeterminismTest, ScoresAreBitIdenticalAcrossShardingConfigs) {
  // The fleet determinism contract: for a fixed seed, every request's
  // score is bit-identical no matter how many workers serve the fleet,
  // how wide the micro-batch window is, or how large the batches are —
  // because each request scores from its own owned rng fork.
  ServerConfig reference_config;
  reference_config.workers = 1;
  reference_config.shard.batch_max = 1;
  reference_config.shard.batch_window_us = 0;
  const auto reference = serve_population(reference_config);
  ASSERT_EQ(reference.size(), 6u);

  for (const std::size_t workers : {2u, 3u, 5u}) {
    for (const std::uint64_t window_us : {std::uint64_t{0},
                                          std::uint64_t{10'000}}) {
      ServerConfig config;
      config.workers = workers;
      config.shard.batch_max = 3;
      config.shard.batch_window_us = window_us;
      const auto scores = serve_population(config);
      ASSERT_EQ(scores.size(), reference.size());
      for (const auto& [id, score] : reference) {
        EXPECT_EQ(scores.at(id), score)
            << "request " << id << " workers=" << workers
            << " window=" << window_us;
      }
    }
  }

  // Batch size alone must not matter either.
  for (const std::size_t batch_max : {1u, 8u}) {
    ServerConfig config;
    config.workers = 2;
    config.shard.batch_max = batch_max;
    const auto scores = serve_population(config);
    for (const auto& [id, score] : reference) {
      EXPECT_EQ(scores.at(id), score)
          << "request " << id << " batch_max=" << batch_max;
    }
  }
}

TEST(ServerTest, SessionLifecycleAndStaleHandles) {
  VirtualClock clock;
  ServerConfig config;
  config.workers = 3;
  Server server(config, clock);

  const SessionHandle a = server.open_session(1);
  const SessionHandle b = server.open_session(2);

  EXPECT_TRUE(server.close_session(1, a));
  EXPECT_FALSE(server.close_session(1, a));  // already closed

  // A submit against the closed session is refused, not queued.
  const Population& pop = Population::instance();
  ServerRequest request;
  request.va = &pop.trials[0].recordings.va;
  request.wearable = &pop.trials[0].recordings.wearable;
  request.segmenter = pop.trials[0].segmenter.get();
  request.rng = Rng(1);
  EXPECT_EQ(server.submit(1, a, request), SubmitStatus::kStaleSession);
  EXPECT_TRUE(server.close_session(2, b));
}

TEST(ServerTest, PlacementIsStableAndServedCountsAccumulate) {
  VirtualClock clock;
  ServerConfig config;
  config.workers = 4;
  Server server(config, clock);

  const std::uint64_t session_id = 12345;
  const std::size_t w = server.shard_of(session_id);
  EXPECT_LT(w, 4u);
  EXPECT_EQ(server.shard_of(session_id), w);  // pure function of the id

  const SessionHandle handle = server.open_session(session_id);
  const Population& pop = Population::instance();
  for (std::size_t i = 0; i < 2; ++i) {
    ServerRequest request;
    request.va = &pop.trials[i].recordings.va;
    request.wearable = &pop.trials[i].recordings.wearable;
    request.segmenter = pop.trials[i].segmenter.get();
    request.rng = Rng(5 + i);
    request.request_id = i;
    ASSERT_EQ(server.submit(session_id, handle, request),
              SubmitStatus::kQueued);
  }
  // All of one session's work lands on its one shard.
  EXPECT_EQ(server.stats(w).admitted, 2u);

  std::vector<ServedResult> results;
  server.drain(results);
  ASSERT_EQ(results.size(), 2u);
  for (const ServedResult& r : results) EXPECT_EQ(r.worker, w);
  EXPECT_EQ(server.stats(w).dequeued, 2u);
}

TEST(ServerTest, WarmBatchAllocatesNothingOnTheDrainingThread) {
  // Forming and completing a batch reuses lane-owned scratch only: once a
  // batch of four requests has warmed the lane, a second batch of the same
  // requests performs no heap allocation on the draining thread — clean
  // requests that are scored, and requests that expire in the queue (a
  // zero budget) and are dropped unscored.
  const Population& pop = Population::instance();
  const struct {
    std::optional<std::uint64_t> deadline_us;
    core::ScoreStatus status;
  } kCases[] = {{std::nullopt, core::ScoreStatus::kOk},
                {0, core::ScoreStatus::kDeadlineExceeded}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(testing::Message()
                 << "deadline " << (c.deadline_us ? "0 us" : "none"));
    VirtualClock clock;
    ServerConfig config;
    config.workers = 1;
    config.shard.batch_max = 4;
    config.deadline_us = c.deadline_us;
    Server server(config, clock);
    const std::uint64_t session_id = 601;
    const SessionHandle handle = server.open_session(session_id);

    const auto submit_batch = [&] {
      Rng base(99);
      for (std::size_t i = 0; i < 4; ++i) {
        ServerRequest request;
        request.va = &pop.trials[i].recordings.va;
        request.wearable = &pop.trials[i].recordings.wearable;
        request.segmenter = pop.trials[i].segmenter.get();
        request.rng = base.fork(i);
        request.request_id = i;
        ASSERT_EQ(server.submit(session_id, handle, request),
                  SubmitStatus::kQueued);
      }
    };
    std::vector<ServedResult> results;
    results.reserve(4);
    submit_batch();
    ASSERT_TRUE(server.form_batch(0).has_value());
    server.complete_batch(0, results);
    ASSERT_EQ(results.size(), 4u);

    submit_batch();
    results.clear();
    const std::uint64_t before = allocation_count();
    const bool formed = server.form_batch(0).has_value();
    if (formed) server.complete_batch(0, results);
    const std::uint64_t allocations = allocation_count() - before;
    ASSERT_TRUE(formed);
    EXPECT_EQ(allocations, 0u);
    ASSERT_EQ(results.size(), 4u);
    for (const ServedResult& r : results) {
      EXPECT_EQ(r.outcome.status, c.status) << r.request_id;
      EXPECT_EQ(r.expired_in_queue, c.deadline_us.has_value());
    }
  }
}

TEST(ServerTest, OversizedDeadlineBudgetNeverExpires) {
  // now + budget would wrap past UINT64_MAX into an already-past expiry;
  // the deadline saturates to "never" instead.
  VirtualClock clock;
  clock.advance(1'000);
  ServerConfig config;
  config.workers = 1;
  config.deadline_us = UINT64_MAX - 10;
  Server server(config, clock);

  const SessionHandle handle = server.open_session(9);
  const Population& pop = Population::instance();
  ServerRequest request;
  request.va = &pop.trials[0].recordings.va;
  request.wearable = &pop.trials[0].recordings.wearable;
  request.segmenter = pop.trials[0].segmenter.get();
  request.rng = Rng(11);
  ASSERT_EQ(server.submit(9, handle, request), SubmitStatus::kQueued);
  clock.advance(60'000);

  std::vector<ServedResult> results;
  server.drain(results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].expired_in_queue);
  EXPECT_EQ(results[0].outcome.status, core::ScoreStatus::kOk);
}

TEST(ServerTest, ExpiredInQueueRequestsAreDroppedUnscored) {
  VirtualClock clock;
  ServerConfig config;
  config.workers = 1;
  config.deadline_us = 5'000;
  config.shard.batch_max = 4;
  Server server(config, clock);

  const SessionHandle handle = server.open_session(9);
  const Population& pop = Population::instance();
  for (std::size_t i = 0; i < 2; ++i) {
    ServerRequest request;
    request.va = &pop.trials[i].recordings.va;
    request.wearable = &pop.trials[i].recordings.wearable;
    request.segmenter = pop.trials[i].segmenter.get();
    request.rng = Rng(11 + i);
    request.request_id = i;
    ASSERT_EQ(server.submit(9, handle, request), SubmitStatus::kQueued);
  }
  clock.advance(60'000);  // both deadlines long gone

  std::vector<ServedResult> results;
  server.drain(results);
  ASSERT_EQ(results.size(), 2u);
  for (const ServedResult& r : results) {
    EXPECT_TRUE(r.expired_in_queue);
    EXPECT_EQ(r.outcome.status, core::ScoreStatus::kDeadlineExceeded);
    EXPECT_STREQ(r.outcome.reason, "deadline_expired_in_queue");
    EXPECT_EQ(r.queue_us, 60'000u);
  }
  const ShardStats stats = server.stats(0);
  EXPECT_EQ(stats.expired, 2u);
  EXPECT_EQ(stats.dequeued, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 0.0);
}

TEST(ServerTest, DeadlineOverrideCancellationTripsBreakerAndDegrades) {
  VirtualClock clock;
  ServerConfig config;
  config.workers = 1;
  config.shard.batch_max = 1;
  config.shard.breaker = BreakerConfig{/*failure_threshold=*/1,
                                       /*cooldown_us=*/1'000'000};
  Server server(config, clock);

  const SessionHandle handle = server.open_session(3);
  const Population& pop = Population::instance();
  auto submit_one = [&](std::uint64_t id) {
    ServerRequest request;
    request.va = &pop.trials[0].recordings.va;
    request.wearable = &pop.trials[0].recordings.wearable;
    request.segmenter = pop.trials[0].segmenter.get();
    request.rng = Rng(21 + id);
    request.request_id = id;
    ASSERT_EQ(server.submit(3, handle, request), SubmitStatus::kQueued);
  };

  // First request: the simulator decides (via the override) that its
  // deadline passes mid-flight — the pipeline cancels, which is a hard
  // failure on the primary route and trips the threshold-1 breaker.
  submit_one(0);
  ASSERT_TRUE(server.form_batch(0, /*force=*/true).has_value());
  std::vector<ServedResult> results;
  const std::uint64_t expired_now[] = {clock.now_us()};
  server.complete_batch(0, results, expired_now);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome.status, core::ScoreStatus::kDeadlineExceeded);
  EXPECT_FALSE(results[0].degraded);
  EXPECT_EQ(server.stats(0).breaker_trips, 1u);

  // Second request: the open breaker routes its batch onto the cheap
  // degraded pipeline, which completes normally.
  submit_one(1);
  const auto planned = server.form_batch(0, /*force=*/true);
  ASSERT_TRUE(planned.has_value());
  EXPECT_TRUE(planned->degraded);
  server.complete_batch(0, results);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].degraded);
  EXPECT_EQ(results[1].outcome.status, core::ScoreStatus::kOk);
}

TEST(ServerTest, ConcurrentSubmitsAllServeExactlyOnce) {
  // Four producer threads submit into four workers at once. With room for
  // every request all are admitted; with a queue bound below the number
  // of submits some are rejected. Either way every submit is counted
  // exactly once, the shard counters agree with what the producers saw,
  // and every admitted request is served exactly once.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  constexpr std::size_t kSubmits = kThreads * kPerThread;
  for (const std::size_t capacity : {std::size_t{64}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "queue capacity " << capacity);
    VirtualClock clock;
    ServerConfig config;
    config.workers = 4;
    config.shard.queue_capacity = capacity;
    Server server(config, clock);

    constexpr std::size_t kSessions = 8;
    std::vector<std::uint64_t> session_ids;
    std::vector<SessionHandle> handles;
    for (std::size_t s = 0; s < kSessions; ++s) {
      session_ids.push_back(700 + s);
      handles.push_back(server.open_session(session_ids[s]));
    }

    const Population& pop = Population::instance();
    std::vector<SubmitStatus> status(kSubmits);  // one slot per submit
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::size_t id =
              static_cast<std::size_t>(t * kPerThread + i);
          const auto& trial = pop.trials[id % pop.trials.size()];
          ServerRequest request;
          request.va = &trial.recordings.va;
          request.wearable = &trial.recordings.wearable;
          request.segmenter = trial.segmenter.get();
          request.rng = Rng(id);
          request.request_id = id;
          const std::size_t s = id % kSessions;
          status[id] = server.submit(session_ids[s], handles[s], request);
        }
      });
    }
    for (auto& thread : threads) thread.join();

    std::size_t admitted = 0, rejected = 0;
    for (const SubmitStatus st : status) {
      admitted += st == SubmitStatus::kQueued;
      rejected += st == SubmitStatus::kRejectedQueueFull;
    }
    EXPECT_EQ(admitted + rejected, kSubmits);
    if (capacity >= kSubmits) {
      EXPECT_EQ(admitted, kSubmits);
    } else {
      EXPECT_LE(admitted, config.workers * capacity);
      EXPECT_GT(rejected, 0u);
    }
    std::uint64_t shard_admitted = 0, shard_rejected = 0;
    for (std::size_t w = 0; w < server.workers(); ++w) {
      shard_admitted += server.stats(w).admitted;
      shard_rejected += server.stats(w).rejected;
    }
    EXPECT_EQ(shard_admitted, admitted);
    EXPECT_EQ(shard_rejected, rejected);

    std::vector<ServedResult> results;
    server.drain(results);
    ASSERT_EQ(results.size(), admitted);
    std::map<std::uint64_t, std::size_t> seen;
    for (const ServedResult& r : results) {
      ++seen[r.request_id];
      EXPECT_EQ(status[r.request_id], SubmitStatus::kQueued)
          << "request " << r.request_id << " was served but not admitted";
      EXPECT_EQ(r.outcome.status, core::ScoreStatus::kOk);
    }
    EXPECT_EQ(seen.size(), results.size());  // every id exactly once
  }
}

}  // namespace
}  // namespace vibguard::serving
