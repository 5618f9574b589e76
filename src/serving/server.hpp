// serving::Server — the sharded multi-worker serving runtime.
//
// The overload toolkit (bounded queues, breaker, deadlines) and the
// zero-alloc batch scorer compose into a fleet here. This is the repo's
// only overload path; one worker is the single serving node:
//
//   session id ── consistent hash ──▶ worker shard
//                                      ├─ bounded MPMC work queue
//                                      ├─ per-tenant admission quotas
//                                      ├─ per-shard circuit breaker
//                                      └─ micro-batcher ─▶ score_batch
//
// Sessions are placed on workers by a consistent-hash ring over the
// session id, so one session's requests always land on one shard — its
// slab record is only ever touched under that shard's lane lock, and the
// fleet needs no global session table. Idle sessions cost one flat
// SessionRecord in the worker's SessionSlab (no per-session heap
// allocation), which is what lets millions of them sit around.
//
// Admitted requests from *different* sessions are coalesced by the
// shard's micro-batcher into DefenseSystem::score_batch calls. The serial
// outcome overload scores every request from its own owned rng, so a
// request's score does not depend on which batch it rode in — and
// therefore not on the worker count, the batch window, or the batch size.
// That is the fleet determinism contract: for a fixed seed, scoring is
// bit-identical across every sharding configuration (pinned by
// tests/serving/server_test.cpp and the fleet sweep).
//
// Threading model: submit() may be called from any thread (shard queues
// are MPMC; slab/payload mutations take the lane lock). Batch formation
// and completion are designed for ONE drainer per shard at a time — run
// one pump thread per worker, or drive all shards from a simulator loop
// (eval::replay_fleet does exactly that on a VirtualClock).
// open_session/close_session are not thread-safe against in-flight
// submits for the same session.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
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

struct ServerConfig {
  /// Primary pipeline configuration (every worker scores with an
  /// identical DefenseSystem, so placement cannot change results).
  core::DefenseConfig defense;
  /// The cheaper mode degraded batches are scored in while a shard's
  /// breaker is open.
  core::DefenseMode degraded_mode = core::DefenseMode::kAudioBaseline;

  std::size_t workers = 4;
  /// Ring points per worker; more replicas = smoother session spread.
  std::size_t ring_replicas = 64;
  /// Per-worker shard configuration (queue bound, micro-batch window,
  /// tenant quotas, breaker).
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

/// One completed (scored, degraded, expired, or migration-dropped)
/// request.
struct ServedResult {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::size_t worker = 0;
  std::size_t batch_size = 0;  ///< size of the micro-batch it rode in
  bool degraded = false;       ///< scored on the degraded route
  bool expired_in_queue = false;  ///< dropped unscored (deadline passed)
  bool migrated = false;       ///< re-homed by a ring resize before this
  bool stolen = false;         ///< served off a peer shard by work stealing
  std::uint64_t queue_us = 0;  ///< admission → batch formation
  core::ScoreOutcome outcome;
};

/// A worker lane's lifecycle. Quarantine is the reversible middle state:
/// the worker keeps its lane and (open) shard but owns no ring arc, so no
/// new work lands on it while the supervisor probes for recovery.
enum class WorkerState {
  kActive,       ///< on the ring, serving placements
  kQuarantined,  ///< fenced off the ring, shard open, awaiting probe
  kRetired,      ///< off the ring, shard closed — terminal
};

const char* worker_state_name(WorkerState state);

/// What one ring resize (remove_worker / add_worker) did. Every queued or
/// in-flight item the resize touched is accounted exactly once: requeued
/// onto its new owner, emitted as an expired result (deadline already
/// passed), or emitted as a dropped result (new owner's queue full) —
/// never silently discarded.
struct ResizeReport {
  std::size_t worker = 0;  ///< the worker removed or added
  bool removed = false;    ///< false: growth

  /// One entry per re-homed session. Handles from before the resize are
  /// stale afterwards; callers holding them must switch to new_handle
  /// (submitting a stale one yields kStaleSession, never aliasing).
  struct MigratedSession {
    std::uint64_t session_id = 0;
    SessionHandle old_handle;
    SessionHandle new_handle;
    std::size_t from = 0;
    std::size_t to = 0;
  };
  std::vector<MigratedSession> sessions;

  std::size_t items_requeued = 0;  ///< re-homed onto live shards
  std::size_t items_expired = 0;   ///< emitted expired (deadline passed)
  std::size_t items_dropped = 0;   ///< emitted dropped (requeue rejected)
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

  /// Worker lane slots ever created (including retired ones — lane
  /// indices are stable across resizes). Iterate [0, workers()) and check
  /// worker_active() for the live set.
  std::size_t workers() const;

  /// True while worker `w` is on the ring (serving placements).
  bool worker_active(std::size_t w) const;
  /// Sorted indices of the workers currently on the ring.
  std::vector<std::size_t> active_worker_ids() const;
  /// Worker `w`'s lifecycle state (kActive ⇔ worker_active).
  WorkerState worker_state(std::size_t w) const;

  /// The worker that owns `session_id` (pure function of the id and the
  /// ring's active set).
  std::size_t shard_of(std::uint64_t session_id) const;

  /// Registers a session in its shard's slab and returns the handle every
  /// subsequent submit for it must present.
  SessionHandle open_session(std::uint64_t session_id,
                             std::uint32_t tenant = 0);

  /// Frees the session's slab slot; outstanding handles go stale. False
  /// when the handle is already stale. Requests still queued for the
  /// session are served normally (their results just stop updating the
  /// record).
  bool close_session(std::uint64_t session_id, SessionHandle handle);

  /// Live sessions across all shards.
  std::size_t sessions() const;

  /// Read access to a session's record (nullptr when stale). The pointer
  /// is invalidated by the next open_session on the same shard.
  const SessionRecord* session(std::uint64_t session_id,
                               SessionHandle handle) const;

  /// Routes one request to the session's shard: tenant quota, bounded
  /// queue, deadline stamping. kStaleSession when the handle no longer
  /// matches a live record for `session_id`. Thread-safe.
  SubmitStatus submit(std::uint64_t session_id, SessionHandle session,
                      const ServerRequest& request);

  /// Earliest time any shard's next micro-batch is due (nullopt when all
  /// queues are empty) — the pump's sleep target.
  std::optional<std::uint64_t> batch_ready_us() const;

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

  // ── Ring resize (control plane) ───────────────────────────────────────
  //
  // Resizes are control-plane operations: no drainer (pump or simulator
  // loop) may be actively forming/completing a batch on the affected lanes
  // while one runs — stop the worker's pump first (the Supervisor does).
  // Concurrent submit() stays safe: a submit racing a removal either lands
  // before the close (and is migrated with the queue) or gets an explicit
  // kRejectedClosed.

  /// Retires worker `w` (failover): closes its shard, removes its ring
  /// points, migrates its live sessions to their new owners (state — the
  /// full SessionRecord — rides along), and re-homes every queued and
  /// parked-batch item. Items whose deadline already passed are emitted on
  /// `out` as expired results; items the new owner cannot accept are
  /// emitted as dropped (kError) results — nothing is silently lost.
  /// Re-placement is a pure function of the surviving active set, so a
  /// fixed seed reproduces the exact same migration.
  ResizeReport remove_worker(std::size_t w, std::vector<ServedResult>& out);

  /// Grows the fleet by one worker (returns its index): adds its ring
  /// points, then migrates exactly the sessions whose owner changed —
  /// everyone else's placement is untouched (the consistent-hash
  /// guarantee) — along with their queued items. `out` receives results
  /// for any item that could not be re-homed (same accounting as
  /// remove_worker; in practice empty unless the new shard's queue is
  /// undersized). Safe while pumps run: the lane vector only grows under
  /// the exclusive ring lock, and a pump is spawned for the new worker
  /// when pumps are running.
  std::size_t add_worker(std::vector<ServedResult>& out,
                         ResizeReport* report = nullptr);

  // ── Quarantine (reversible fence) and work stealing ───────────────────

  /// Fences worker `w` out of the ring WITHOUT closing its shard: ring
  /// points dropped, live sessions migrated to their new owners, queued
  /// and parked-batch items drained through the steal path
  /// (Shard::steal_batch accounting) and re-homed — expired items emitted
  /// as expired results, unplaceable ones as dropped results, never
  /// silently lost. The lane stays intact so restore_worker can bring the
  /// worker back. Control-plane call: the worker's pump must be fenced
  /// (fence_pump / restart_pump) or parked outside drain first.
  ResizeReport quarantine_worker(std::size_t w,
                                 std::vector<ServedResult>& out);

  /// Reverses a quarantine: re-adds `w`'s ring points and migrates back
  /// exactly the sessions whose owner is `w` again (the consistent-hash
  /// minimal-migration guarantee), with their queued items. Same
  /// accounting as add_worker.
  ResizeReport restore_worker(std::size_t w, std::vector<ServedResult>& out);

  /// Escalates a quarantine to terminal: closes the shard and re-homes
  /// anything that landed on it since the quarantine drain (racing
  /// submits). Sessions were already migrated out at quarantine time.
  ResizeReport retire_worker(std::size_t w, std::vector<ServedResult>& out);

  /// Work stealing: moves up to `max_items` of the oldest queued,
  /// non-expired items from `victim`'s shard onto `thief`'s (payloads
  /// re-parked, enqueued_us preserved, thief tenant quotas enforced).
  /// Items the thief refuses are returned to the victim's queue; if the
  /// victim also refuses (closed or refilled by racing submits) the item
  /// is emitted on `out` as a dropped result. Expired items encountered
  /// on the victim's queue head are emitted as expired results. Returns
  /// the number of items that actually moved.
  std::size_t steal_work(std::size_t thief, std::size_t victim,
                         std::size_t max_items,
                         std::vector<ServedResult>& out);

  // ── Thread-per-worker pumps ───────────────────────────────────────────

  /// Invoked under the pump thread with each completed result; must be
  /// thread-safe across pumps.
  using ResultSink = std::function<void(const ServedResult&)>;

  /// Runs worker `w`'s pump loop on the calling thread (Shard::run_pump):
  /// forms and completes micro-batches as their windows elapse, feeding
  /// `sink`, heartbeating every iteration through the epoch gate (a
  /// bump_epoch fences the loop out). Returns batches served.
  std::size_t run_pump(std::size_t w, const ResultSink& sink,
                       const std::atomic<bool>& stop,
                       const PumpConfig& pump = {});

  /// Spawns one pump thread per currently-active worker. stop_pumps()
  /// (or destruction) signals stop, force-drains, and joins — including
  /// any epoch-fenced predecessor threads still parked.
  void start_pumps(ResultSink sink, const PumpConfig& pump = {});
  void stop_pumps();
  bool pumps_running() const {
    return pumps_running_.load(std::memory_order_acquire);
  }

  /// Bumps worker `w`'s heartbeat epoch, fencing its current pump thread
  /// (it exits at its next epoch-gated beat and is joined at stop_pumps).
  /// The thread is NOT joined here — a genuinely wedged pump would block
  /// forever; fencing merely guarantees it can never beat or drain again
  /// once it reaches its next loop iteration. No-op thread-wise when
  /// pumps are not running (the epoch still bumps — the simulator's
  /// stand-in beats pick up the new epoch automatically).
  void fence_pump(std::size_t w);

  /// Spawns a fresh pump thread for `w` under the current epoch. Requires
  /// running pumps and no live (unfenced) pump for `w`.
  void start_pump(std::size_t w);

  /// fence_pump + (when pumps are running) start_pump: the
  /// quarantine-recovery restart with a fresh heartbeat epoch.
  void restart_pump(std::size_t w);

  const Shard& shard(std::size_t w) const { return lane(w).shard; }
  Shard& shard(std::size_t w) { return lane(w).shard; }

  /// Pipeline-stage aggregates accumulated by worker `w`'s scoring calls.
  const core::PipelineStats& worker_pipeline_stats(std::size_t w) const {
    return lane(w).pipeline_stats;
  }

 private:
  /// Everything one worker owns. Heap-pinned (vector of unique_ptr) so
  /// lanes never move; `mu` guards the slab and payload slots, the shard
  /// locks itself.
  struct Lane {
    Lane(const ShardConfig& shard_config, const Clock& clock)
        : shard(shard_config, clock) {}

    Shard shard;
    mutable std::mutex mu;
    SessionSlab slab;
    /// Parked request payloads, indexed by WorkItem::payload; slots are
    /// recycled LIFO. Holds the borrowed signal pointers and the owned
    /// rng for exactly as long as the request is in flight.
    std::vector<ServerRequest> payloads;
    std::vector<std::size_t> free_payloads;

    // One-drainer scratch (form_batch → complete_batch).
    std::vector<WorkItem> batch;
    FormedBatch formed;
    bool has_batch = false;

    core::Workspace workspace;
    core::PipelineStats pipeline_stats;
    std::vector<core::ScoreRequest> reqs;
    std::vector<core::ScoreOutcome> outs;
    std::vector<Deadline> deadlines;
  };

  std::size_t park_payload(Lane& lane, const ServerRequest& request);

  /// Lane access that is safe against a concurrent add_worker (which may
  /// reallocate the lane vector under the exclusive ring lock): the shared
  /// lock covers only the vector indexing; the Lane itself is heap-pinned,
  /// so the returned reference stays valid forever. Must NOT be called
  /// with ring_mu_ already held (shared_mutex is not recursive).
  Lane& lane(std::size_t w) const;

  /// Re-homes `stranded` items off retiring/donor lane `from` onto their
  /// current ring owners, emitting expired/dropped results on `out`.
  /// `new_handles` maps migrated session ids to their post-resize handles.
  void rehome_items(std::size_t from, std::vector<WorkItem>& stranded,
                    const std::vector<ResizeReport::MigratedSession>& moved,
                    ResizeReport& report, std::vector<ServedResult>& out);

  /// Moves the live sessions of lane `from` whose ring owner is no longer
  /// `from` into their new lanes; appends one MigratedSession each.
  void migrate_sessions(std::size_t from,
                        std::vector<ResizeReport::MigratedSession>& moved);

  /// The donor side of a ring grow/restore: each donor in `donors` gives
  /// up the sessions (and queued items) whose owner changed.
  void reclaim_from_donors(const std::vector<std::size_t>& donors,
                           ResizeReport& report,
                           std::vector<ServedResult>& out);

  ServerConfig config_;
  const Clock* clock_;
  core::DefenseSystem system_;
  std::optional<core::DefenseSystem> degraded_system_;
  /// Placement reads (shard_of) take the shared side; resizes — including
  /// the lane-vector push in add_worker — take the exclusive side. Lane
  /// locks never nest inside it the other way.
  mutable std::shared_mutex ring_mu_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<WorkerState> states_;  ///< per lane; guarded by ring_mu_

  /// Pump bookkeeping (guarded by pumps_mu_): one live thread per worker,
  /// plus fenced predecessors awaiting their join at stop_pumps.
  mutable std::mutex pumps_mu_;
  std::vector<std::pair<std::size_t, std::thread>> pumps_;
  std::vector<std::thread> fenced_pumps_;
  std::shared_ptr<ResultSink> pump_sink_;
  PumpConfig pump_cfg_;
  std::atomic<bool> pumps_running_{false};
  std::atomic<bool> pump_stop_{false};
};

}  // namespace vibguard::serving
