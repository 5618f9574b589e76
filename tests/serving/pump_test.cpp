// Thread-per-worker pump loop on a real clock: start_pumps spawns one
// drainer per worker, every submitted request is served exactly once
// through the sink, and stop_pumps force-drains before joining. This is
// the slice the CI thread-sanitizer job exercises.
#include "serving/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "attacks/attack.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/segmentation.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario.hpp"

namespace vibguard::serving {
namespace {

/// A small rendered population whose signals stay alive for the whole
/// process (requests borrow them while in flight on pump threads).
struct Population {
  struct Trial {
    eval::TrialRecordings recordings;
    std::unique_ptr<core::OracleSegmenter> segmenter;
  };
  std::vector<Trial> trials;

  static const Population& instance() {
    static Population* pop = [] {
      auto* p = new Population;
      eval::ScenarioSimulator sim(eval::ScenarioConfig{}, 171);
      Rng rng(172);
      const auto user = speech::sample_speaker(speech::Sex::kFemale, rng);
      const auto adv = speech::sample_speaker(speech::Sex::kMale, rng);
      const auto& cmd = speech::command_by_text("unlock the front door");
      for (int i = 0; i < 4; ++i) {
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

ServerConfig pump_config(std::size_t workers) {
  ServerConfig config;
  config.workers = workers;
  config.shard.queue_capacity = 256;
  config.shard.batch_max = 4;
  config.shard.batch_window_us = 2'000;
  return config;
}

/// Thread-safe result collector handed to start_pumps.
struct Collector {
  std::mutex mu;
  std::vector<ServedResult> results;

  Server::ResultSink sink() {
    return [this](const ServedResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(r);
    };
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return results.size();
  }
};

/// Spins (with small sleeps) until `count()` reaches `want` or ~5 s pass.
void wait_for_results(Collector& collector, std::size_t want) {
  for (int spins = 0; spins < 5'000; ++spins) {
    if (collector.count() >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(PumpTest, PumpsServeEveryRequestExactlyOnce) {
  const Population& pop = Population::instance();
  const SteadyClock& clock = SteadyClock::instance();
  Server server(pump_config(3), clock);

  const std::vector<std::uint64_t> session_ids = {901, 902, 903, 904};
  std::vector<SessionHandle> handles;
  for (std::uint64_t sid : session_ids) {
    handles.push_back(server.open_session(sid));
  }

  Collector collector;
  server.start_pumps(collector.sink());
  EXPECT_TRUE(server.pumps_running());

  // Submit from several producer threads while the pumps run.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 16;
  std::atomic<std::size_t> queued{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng base(500 + p);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t t = (p + i) % pop.trials.size();
        const std::size_t s = (p + i) % session_ids.size();
        ServerRequest request;
        request.va = &pop.trials[t].recordings.va;
        request.wearable = &pop.trials[t].recordings.wearable;
        request.segmenter = pop.trials[t].segmenter.get();
        request.rng = base.fork(i);
        request.request_id = p * 1'000 + i;
        if (server.submit(session_ids[s], handles[s], request) ==
            SubmitStatus::kQueued) {
          queued.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(queued.load(), kProducers * kPerProducer);

  wait_for_results(collector, queued.load());
  server.stop_pumps();
  EXPECT_FALSE(server.pumps_running());

  // Exactly once: every request id appears once, scored, undegraded.
  std::map<std::uint64_t, std::size_t> seen;
  for (const ServedResult& r : collector.results) {
    ++seen[r.request_id];
    EXPECT_FALSE(r.expired_in_queue);
    EXPECT_EQ(r.outcome.status, core::ScoreStatus::kOk)
        << "request " << r.request_id << ": " << r.outcome.reason;
  }
  EXPECT_EQ(seen.size(), queued.load());
  for (const auto& [id, n] : seen) {
    EXPECT_EQ(n, 1u) << "request " << id << " served " << n << " times";
  }
}

TEST(PumpTest, StopPumpsForceDrainsQueuedWork) {
  const Population& pop = Population::instance();
  const SteadyClock& clock = SteadyClock::instance();
  ServerConfig config = pump_config(2);
  // A window far longer than the test: only the stop-path force drain can
  // serve these items.
  config.shard.batch_window_us = 60'000'000;
  config.shard.batch_max = 64;
  Server server(config, clock);

  const std::uint64_t sid = 31;
  const SessionHandle handle = server.open_session(sid);
  Collector collector;
  server.start_pumps(collector.sink());

  Rng base(7);
  constexpr std::size_t kRequests = 6;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto& trial = pop.trials[i % pop.trials.size()];
    ServerRequest request;
    request.va = &trial.recordings.va;
    request.wearable = &trial.recordings.wearable;
    request.segmenter = trial.segmenter.get();
    request.rng = base.fork(i);
    request.request_id = i;
    ASSERT_EQ(server.submit(sid, handle, request), SubmitStatus::kQueued);
  }

  server.stop_pumps();
  EXPECT_EQ(collector.count(), kRequests);
}

TEST(PumpTest, DestructorJoinsRunningPumps) {
  Collector collector;
  {
    const SteadyClock& clock = SteadyClock::instance();
    Server server(pump_config(2), clock);
    server.start_pumps(collector.sink());
    // Falls out of scope with pumps live; ~Server must stop and join them
    // (this test passing IS the assertion — a missed join aborts).
  }
  SUCCEED();
}

}  // namespace
}  // namespace vibguard::serving
