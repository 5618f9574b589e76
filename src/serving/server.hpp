// serving::Server — the sharded multi-worker serving runtime.
//
// The overload toolkit (bounded queues, breaker, deadlines) and the
// zero-alloc batch scorer compose into a fixed-size fleet here. This is
// the repo's only overload path; one worker is the single serving node:
//
//   session id ── consistent hash ──▶ worker lane (one mutex)
//                                      ├─ session slab, payload slots
//                                      └─ shard: bounded work queue,
//                                         circuit breaker, micro-batcher
//                                         ─▶ score_batch
//
// Sessions are placed on workers by a consistent-hash ring over the
// session id, so one session's requests always land on one shard — its
// slab record is only ever touched under that worker's lane lock, and the
// fleet needs no global session table. Idle sessions cost one flat
// SessionRecord in the worker's SessionSlab (no per-session heap
// allocation).
//
// The worker count and the ring are fixed at construction, so placement
// and lane lookup read without a lock. Each worker has exactly one lock,
// its lane mutex, which guards the slab, the payload slots and the
// unlocked shard: submit() takes it once, form_batch() once and
// complete_batch() twice per batch (borrowing the payloads, then feeding
// the breaker and recycling the slots). Nothing takes a server-wide lock.
//
// Admitted requests from *different* sessions are coalesced by the
// shard's micro-batcher into DefenseSystem::score_batch calls. The serial
// outcome overload scores every request from its own owned rng, so a
// request's score does not depend on which batch it rode in — and
// therefore not on the worker count, the batch window, or the batch size.
// That is the fleet determinism contract: for a fixed seed, scoring is
// bit-identical across every sharding configuration (pinned by
// tests/serving/server_test.cpp and the fleet sweep). A warm batch
// allocates nothing on the draining thread: every buffer it uses is
// lane-owned scratch.
//
// Threading model: submit(), batch_ready_us() and stats() may be called
// from any thread. Batch formation and completion are designed for ONE
// drainer per worker at a time — run one pump thread per worker, or drive
// all workers from a simulator loop (eval::run_fleet_sweep does exactly
// that on a VirtualClock). open_session/close_session are not thread-safe
// against in-flight submits for the same session.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "core/pipeline.hpp"
#include "serving/session_slab.hpp"
#include "serving/shard.hpp"

namespace vibguard::serving {

/// Ring points per worker. More replicas give a smoother session spread;
/// every committed sweep table and serve_closed's session spread depend
/// on this exact value.
inline constexpr std::size_t kRingReplicas = 64;

struct ServerConfig {
  /// Primary pipeline configuration (every worker scores with an
  /// identical DefenseSystem, so placement cannot change results). While a
  /// shard's breaker is open its batches are scored in the cheaper
  /// DefenseMode::kAudioBaseline instead.
  core::DefenseConfig defense;

  std::size_t workers = 4;
  /// Per-worker shard configuration (queue bound, micro-batch window,
  /// breaker).
  ShardConfig shard;
  /// Per-request budget from submission, on the server clock; requests
  /// whose budget passes while queued are dropped as expired. nullopt
  /// disables deadlines.
  std::optional<std::uint64_t> deadline_us;
};

/// One request for a session. Signals are borrowed and must stay alive
/// until the request's ServedResult is emitted; the rng is owned (fork it
/// per request), which is what makes scoring batch-invariant.
struct ServerRequest {
  const Signal* va = nullptr;
  const Signal* wearable = nullptr;
  const core::Segmenter* segmenter = nullptr;
  Rng rng;
  std::uint64_t request_id = 0;  ///< caller-chosen correlation id
};

/// One completed (scored, degraded, or expired) request.
struct ServedResult {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::size_t worker = 0;
  std::size_t batch_size = 0;  ///< size of the micro-batch it rode in
  bool degraded = false;       ///< scored on the degraded route
  bool expired_in_queue = false;  ///< dropped unscored (deadline passed)
  std::uint64_t queue_us = 0;  ///< admission → batch formation
  core::ScoreOutcome outcome;
};

/// A batch formed and awaiting completion; items borrow the worker lane's
/// scratch and stay valid until complete_batch().
struct PlannedBatch {
  std::size_t worker = 0;
  bool degraded = false;
  bool probe = false;
  std::span<const WorkItem> items;
};

class Server {
 public:
  /// `clock` drives deadlines, queue times and breaker cooldowns; it is
  /// borrowed and must outlive the server.
  Server(ServerConfig config, const Clock& clock);

  /// Joins any pump threads still running.
  ~Server();

  const ServerConfig& config() const { return config_; }

  /// Worker count, fixed at construction.
  std::size_t workers() const { return lanes_.size(); }

  /// The worker that owns `session_id` (pure function of the id and the
  /// worker count).
  std::size_t shard_of(std::uint64_t session_id) const {
    return ring_.worker_for(mix64(session_id));
  }

  /// Registers a session in its shard's slab and returns the handle every
  /// subsequent submit for it must present.
  SessionHandle open_session(std::uint64_t session_id);

  /// Frees the session's slab slot; outstanding handles go stale, so a
  /// later submit with one is refused as kStaleSession. False when the
  /// handle is already stale. Requests still queued for the session are
  /// served normally.
  bool close_session(std::uint64_t session_id, SessionHandle handle);

  /// Routes one request to the session's shard: bounded queue, deadline
  /// stamping. kStaleSession when the handle no longer matches a live
  /// record for `session_id`. Thread-safe; takes the lane lock once.
  SubmitStatus submit(std::uint64_t session_id, SessionHandle session,
                      const ServerRequest& request);

  /// When worker `w`'s next batch is due, on the server clock (nullopt:
  /// queue empty); see Shard::batch_ready_us. Thread-safe.
  std::optional<std::uint64_t> batch_ready_us(std::size_t w) const;

  /// A copy of worker `w`'s shard counters. Thread-safe.
  ShardStats stats(std::size_t w) const;

  /// Forms worker `w`'s next micro-batch (nullopt: queue empty, or the
  /// window has not elapsed and `force` is false). The batch is parked in
  /// the lane until complete_batch(w) — exactly one planned batch per
  /// worker at a time. Splitting formation from completion lets the
  /// fleet simulator advance the clock between the two.
  std::optional<PlannedBatch> form_batch(std::size_t w, bool force = false);

  /// Scores worker `w`'s planned batch and appends one ServedResult per
  /// item. `deadline_override`, when non-empty (one absolute expiry per
  /// item), replaces each item's own deadline for the scoring call — the
  /// simulator uses it to model cancellation at a precomputed time.
  /// Expired items are emitted unscored; primary-route outcomes feed the
  /// shard breaker (one outcome per item).
  void complete_batch(std::size_t w, std::vector<ServedResult>& out,
                      std::span<const std::uint64_t> deadline_override = {});

  /// Serves everything currently queued (forced windows, live deadlines):
  /// form + complete per shard until every queue is empty.
  void drain(std::vector<ServedResult>& out);

  // ── Thread-per-worker pumps ───────────────────────────────────────────

  /// Invoked under the pump thread with each completed result; must be
  /// thread-safe across pumps.
  using ResultSink = std::function<void(const ServedResult&)>;

  /// Runs worker `w`'s pump loop on the calling thread. Each iteration
  /// either sleeps toward the next batch-ready time (in slices of at most
  /// 1 ms of server clock, so `stop` stays responsive) or forms and
  /// completes one micro-batch, feeding `sink`. On `stop` the loop
  /// force-drains everything still queued before returning. Returns
  /// batches served. One pump per worker at a time (the one-drainer
  /// contract).
  std::size_t run_pump(std::size_t w, const ResultSink& sink,
                       const std::atomic<bool>& stop);

  /// Spawns one pump thread per worker. stop_pumps() (or destruction)
  /// signals stop, force-drains, and joins. Call both from one control
  /// thread.
  void start_pumps(ResultSink sink);
  void stop_pumps();
  bool pumps_running() const { return !pumps_.empty(); }

 private:
  /// Everything one worker owns. Heap-pinned (vector of unique_ptr) so
  /// lanes never move; `mu` guards the shard, the slab and the payload
  /// slots. The scratch below them belongs to the worker's one drainer.
  struct Lane {
    Lane(const ShardConfig& shard_config, const Clock& clock)
        : shard(shard_config, clock) {}

    mutable std::mutex mu;
    Shard shard;
    SessionSlab slab;
    /// Parked request payloads, indexed by WorkItem::payload; slots are
    /// recycled LIFO. Holds the borrowed signal pointers and the owned
    /// rng for exactly as long as the request is in flight.
    std::vector<ServerRequest> payloads;
    std::vector<std::size_t> free_payloads;

    // One-drainer scratch (form_batch → complete_batch), reused so a warm
    // batch allocates nothing.
    std::vector<WorkItem> batch;
    FormedBatch formed;
    bool has_batch = false;

    core::Workspace workspace;
    std::vector<core::ScoreRequest> reqs;
    std::vector<core::ScoreOutcome> outs;
    std::vector<Deadline> deadlines;
    std::vector<std::size_t> scored_item;  ///< batch index per scoring slot
  };

  std::size_t park_payload(Lane& lane, const ServerRequest& request);

  Lane& lane(std::size_t w) const;

  ServerConfig config_;
  const Clock* clock_;
  core::DefenseSystem system_;
  std::optional<core::DefenseSystem> degraded_system_;
  const ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  std::vector<std::thread> pumps_;  ///< one per worker while running
  ResultSink pump_sink_;
  std::atomic<bool> pump_stop_{false};
};

}  // namespace vibguard::serving
