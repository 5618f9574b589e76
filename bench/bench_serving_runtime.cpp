// Micro-benchmarks for the sharded serving runtime's data-plane
// primitives: SessionSlab open/lookup/close churn, WorkRing
// push/pop, consistent-hash ring placement, and the server's
// submit → form_batch → complete_batch path with nothing scored (this is
// the bookkeeping cost a request pays on top of being scored).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "common/signal.hpp"
#include "serving/server.hpp"
#include "serving/session_slab.hpp"
#include "serving/shard.hpp"

namespace vibguard::serving {
namespace {

void BM_SessionSlabInsertEraseChurn(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  SessionSlab slab;
  std::vector<SessionHandle> handles;
  handles.reserve(live);
  SessionRecord record;
  for (std::size_t i = 0; i < live; ++i) {
    record.session_id = i;
    handles.push_back(slab.insert(record));
  }
  // Steady-state churn: one close + one open per iteration, cycling
  // through the resident set so the free list stays warm.
  std::size_t cursor = 0;
  for (auto _ : state) {
    slab.erase(handles[cursor]);
    record.session_id = 1'000'000 + cursor;
    handles[cursor] = slab.insert(record);
    benchmark::DoNotOptimize(handles[cursor]);
    cursor = (cursor + 1) % live;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionSlabInsertEraseChurn)->Arg(1024)->Arg(65536);

void BM_SessionSlabLookup(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  SessionSlab slab;
  std::vector<SessionHandle> handles;
  handles.reserve(live);
  SessionRecord record;
  for (std::size_t i = 0; i < live; ++i) {
    record.session_id = i;
    handles.push_back(slab.insert(record));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    SessionRecord* r = slab.get(handles[cursor]);
    benchmark::DoNotOptimize(r);
    cursor = (cursor + 1) % live;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionSlabLookup)->Arg(1024)->Arg(65536);

void BM_WorkRingPushPop(benchmark::State& state) {
  WorkRing queue(256);
  WorkItem item;
  WorkItem out;
  for (auto _ : state) {
    queue.try_push(item);
    queue.try_pop(out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkRingPushPop);

void BM_ConsistentHashRingLookup(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  ConsistentHashRing ring(workers, 64);
  std::uint64_t id = 0;
  for (auto _ : state) {
    const std::size_t w = ring.worker_for(mix64(id++));
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsistentHashRingLookup)->Arg(4)->Arg(64);

void BM_ServerSubmitFormComplete(benchmark::State& state) {
  // One worker and a zero deadline budget: every request expires in the
  // queue, so complete_batch emits results without scoring anything.
  const auto batch = static_cast<std::size_t>(state.range(0));
  VirtualClock clock;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.shard.queue_capacity = 256;
  cfg.shard.batch_max = batch;
  cfg.deadline_us = 0;
  Server server(cfg, clock);
  const std::uint64_t session_id = 1;
  const SessionHandle handle = server.open_session(session_id);
  const Signal va, wearable;
  ServerRequest request;
  request.va = &va;
  request.wearable = &wearable;
  std::vector<ServedResult> results;
  results.reserve(batch);
  std::uint64_t id = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      request.request_id = id++;
      server.submit(session_id, handle, request);
    }
    auto planned = server.form_batch(0, /*force=*/true);
    benchmark::DoNotOptimize(planned);
    results.clear();
    server.complete_batch(0, results);
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_ServerSubmitFormComplete)->Arg(1)->Arg(8);

}  // namespace
}  // namespace vibguard::serving

BENCHMARK_MAIN();
