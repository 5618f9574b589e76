#include "serving/server.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace vibguard::serving {

const char* worker_state_name(WorkerState state) {
  switch (state) {
    case WorkerState::kActive: return "active";
    case WorkerState::kQuarantined: return "quarantined";
    case WorkerState::kRetired: return "retired";
  }
  VIBGUARD_UNREACHABLE();
}

Server::Server(ServerConfig config, const Clock& clock)
    : config_(config),
      clock_(&clock),
      system_(config.defense),
      ring_(config.workers, config.ring_replicas) {
  VIBGUARD_REQUIRE(config_.workers > 0, "server needs at least one worker");
  if (config_.shard.breaker.has_value()) {
    core::DefenseConfig degraded = config_.defense;
    degraded.mode = config_.degraded_mode;
    degraded_system_.emplace(degraded);
  }
  lanes_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    lanes_.push_back(std::make_unique<Lane>(config_.shard, clock));
  }
  states_.assign(config_.workers, WorkerState::kActive);
}

Server::~Server() { stop_pumps(); }

std::size_t Server::workers() const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  return lanes_.size();
}

Server::Lane& Server::lane(std::size_t w) const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  VIBGUARD_REQUIRE(w < lanes_.size(), "no such worker");
  return *lanes_[w];
}

std::size_t Server::shard_of(std::uint64_t session_id) const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  return ring_.worker_for(mix64(session_id));
}

bool Server::worker_active(std::size_t w) const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  return ring_.contains(w);
}

std::vector<std::size_t> Server::active_worker_ids() const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  return ring_.active_workers();
}

WorkerState Server::worker_state(std::size_t w) const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  VIBGUARD_REQUIRE(w < states_.size(), "no such worker");
  return states_[w];
}

SessionHandle Server::open_session(std::uint64_t session_id,
                                   std::uint32_t tenant) {
  Lane& lane = this->lane(shard_of(session_id));
  std::lock_guard<std::mutex> lock(lane.mu);
  SessionRecord record;
  record.session_id = session_id;
  record.tenant = tenant;
  record.last_active_us = clock_->now_us();
  return lane.slab.insert(record);
}

bool Server::close_session(std::uint64_t session_id, SessionHandle handle) {
  Lane& lane = this->lane(shard_of(session_id));
  std::lock_guard<std::mutex> lock(lane.mu);
  const SessionRecord* record = lane.slab.get(handle);
  if (record == nullptr || record->session_id != session_id) return false;
  return lane.slab.erase(handle);
}

std::size_t Server::sessions() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < workers(); ++w) {
    Lane& ln = lane(w);
    std::lock_guard<std::mutex> lock(ln.mu);
    total += ln.slab.size();
  }
  return total;
}

const SessionRecord* Server::session(std::uint64_t session_id,
                                     SessionHandle handle) const {
  const Lane& lane = this->lane(shard_of(session_id));
  std::lock_guard<std::mutex> lock(lane.mu);
  const SessionRecord* record = lane.slab.get(handle);
  if (record == nullptr || record->session_id != session_id) return nullptr;
  return record;
}

std::size_t Server::park_payload(Lane& lane, const ServerRequest& request) {
  if (!lane.free_payloads.empty()) {
    const std::size_t slot = lane.free_payloads.back();
    lane.free_payloads.pop_back();
    lane.payloads[slot] = request;
    return slot;
  }
  lane.payloads.push_back(request);
  return lane.payloads.size() - 1;
}

SubmitStatus Server::submit(std::uint64_t session_id, SessionHandle session,
                            const ServerRequest& request) {
  VIBGUARD_REQUIRE(request.va != nullptr && request.wearable != nullptr,
                   "server request needs both signals");
  const std::size_t w = shard_of(session_id);
  Lane& lane = this->lane(w);

  WorkItem item;
  item.session_id = session_id;
  item.request_id = request.request_id;
  item.session = session;
  item.deadline_at_us = kNoDeadline;
  if (config_.deadline_us.has_value()) {
    // Saturates: a budget too large to add to the clock never expires.
    const std::uint64_t now = clock_->now_us();
    item.deadline_at_us = *config_.deadline_us > kNoDeadline - now
                              ? kNoDeadline
                              : now + *config_.deadline_us;
  }
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    const SessionRecord* record = lane.slab.get(session);
    if (record == nullptr || record->session_id != session_id) {
      return SubmitStatus::kStaleSession;
    }
    item.tenant = record->tenant;
    item.payload = park_payload(lane, request);
  }

  const SubmitStatus status = lane.shard.submit(item);
  if (status != SubmitStatus::kQueued) {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.free_payloads.push_back(item.payload);
  }
  return status;
}

std::optional<std::uint64_t> Server::batch_ready_us() const {
  std::optional<std::uint64_t> earliest;
  for (std::size_t w = 0; w < workers(); ++w) {
    const auto ready = lane(w).shard.batch_ready_us();
    if (ready.has_value() && (!earliest.has_value() || *ready < *earliest)) {
      earliest = ready;
    }
  }
  return earliest;
}

std::optional<PlannedBatch> Server::form_batch(std::size_t w, bool force) {
  Lane& lane = this->lane(w);
  VIBGUARD_REQUIRE(!lane.has_batch,
                   "complete the previous batch before forming another");
  lane.batch.clear();
  const auto formed = lane.shard.form_batch(lane.batch, force);
  if (!formed.has_value()) return std::nullopt;
  lane.formed = *formed;
  lane.has_batch = true;
  PlannedBatch planned;
  planned.worker = w;
  planned.degraded = formed->degraded;
  planned.probe = formed->probe;
  planned.items = lane.batch;
  return planned;
}

void Server::complete_batch(std::size_t w, std::vector<ServedResult>& out,
                            std::span<const std::uint64_t> deadline_override) {
  Lane& lane = this->lane(w);
  VIBGUARD_REQUIRE(lane.has_batch, "no batch formed for this worker");
  VIBGUARD_REQUIRE(
      deadline_override.empty() ||
          deadline_override.size() == lane.batch.size(),
      "deadline override must cover the whole batch");
  lane.has_batch = false;

  // Build the scoring batch from the non-expired items. Deadlines are
  // materialized first (the ScoreRequests borrow pointers into the
  // vector, so it must not grow afterwards).
  lane.reqs.clear();
  lane.outs.clear();
  lane.deadlines.clear();
  lane.deadlines.reserve(lane.batch.size());
  std::vector<std::size_t> scored_item;  // batch index per scoring slot
  for (std::size_t i = 0; i < lane.batch.size(); ++i) {
    const WorkItem& item = lane.batch[i];
    if (item.expired_in_queue) continue;
    const std::uint64_t expires = !deadline_override.empty()
                                      ? deadline_override[i]
                                      : item.deadline_at_us;
    lane.deadlines.push_back(expires == kNoDeadline
                                 ? Deadline()
                                 : Deadline(*clock_, expires));
    scored_item.push_back(i);
  }
  const core::DefenseSystem& route =
      lane.formed.degraded ? *degraded_system_ : system_;
  {
    // Payload slots are shared with concurrent submit() (park_payload can
    // reallocate the vector), so the borrow happens under the lane lock —
    // the ScoreRequests copy out everything they need.
    std::lock_guard<std::mutex> lock(lane.mu);
    for (std::size_t s = 0; s < scored_item.size(); ++s) {
      const WorkItem& item = lane.batch[scored_item[s]];
      const ServerRequest& payload = lane.payloads[item.payload];
      core::ScoreRequest req;
      req.va = payload.va;
      req.wearable = payload.wearable;
      req.segmenter = payload.segmenter;
      req.rng = payload.rng;
      req.deadline =
          lane.deadlines[s].bounded() ? &lane.deadlines[s] : nullptr;
      lane.reqs.push_back(req);
    }
  }
  lane.outs.resize(lane.reqs.size());
  if (!lane.reqs.empty()) {
    route.score_batch(lane.reqs, std::span<core::ScoreOutcome>(lane.outs),
                      lane.workspace, nullptr, &lane.pipeline_stats);
  }

  // Emit results in batch order, feed the breaker (primary route only,
  // one outcome per item), update the slab records, recycle payloads.
  std::size_t next_scored = 0;
  for (std::size_t i = 0; i < lane.batch.size(); ++i) {
    const WorkItem& item = lane.batch[i];
    ServedResult result;
    result.request_id = item.request_id;
    result.session_id = item.session_id;
    result.worker = w;
    result.batch_size = lane.batch.size();
    result.degraded = lane.formed.degraded;
    result.expired_in_queue = item.expired_in_queue;
    result.migrated = item.migrations > 0;
    result.stolen = item.stolen;
    result.queue_us = lane.formed.now_us >= item.enqueued_us
                          ? lane.formed.now_us - item.enqueued_us
                          : 0;
    if (item.expired_in_queue) {
      result.outcome.status = core::ScoreStatus::kDeadlineExceeded;
      result.outcome.reason = "deadline_expired_in_queue";
      result.outcome.score = core::kIndeterminateScore;
      if (!lane.formed.degraded) {
        // Never ran, so it says nothing about the pipeline's health —
        // but if this was the probe, the slot must be released.
        lane.shard.record(TrialOutcome::kIndeterminate,
                          result.outcome.reason);
      }
    } else {
      result.outcome = lane.outs[next_scored++];
      if (!lane.formed.degraded) {
        TrialOutcome trial = TrialOutcome::kIndeterminate;
        if (result.outcome.status == core::ScoreStatus::kOk) {
          trial = TrialOutcome::kSuccess;
        } else if (result.outcome.status == core::ScoreStatus::kError ||
                   result.outcome.status ==
                       core::ScoreStatus::kDeadlineExceeded) {
          trial = TrialOutcome::kHardFailure;
        }
        lane.shard.record(trial, result.outcome.reason != nullptr
                                     ? result.outcome.reason
                                     : "");
      }
    }
    {
      // A stolen item's session record lives on its OWNER's lane (stealing
      // moves work, not sessions) — resolve through the ring for those.
      // Unstolen items keep the direct path, so behavior without stealing
      // is bit-identical to before.
      Lane& home = item.stolen ? this->lane(shard_of(item.session_id)) : lane;
      std::lock_guard<std::mutex> lock(home.mu);
      SessionRecord* record = home.slab.get(item.session);
      // Expired drops were never served: the record's counters describe
      // work actually done for the session.
      if (!item.expired_in_queue && record != nullptr &&
          record->session_id == item.session_id) {
        ++record->served;
        record->last_active_us = clock_->now_us();
      }
    }
    {
      // The payload always recycles on the SERVING lane (where it was
      // parked), regardless of where the session record lives.
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.free_payloads.push_back(item.payload);
    }
    out.push_back(result);
  }
}

void Server::drain(std::vector<ServedResult>& out) {
  for (std::size_t w = 0; w < workers(); ++w) {
    if (!worker_active(w) && lane(w).shard.depth() == 0) continue;
    while (form_batch(w, /*force=*/true).has_value()) {
      complete_batch(w, out);
    }
  }
}

// ── Ring resize ─────────────────────────────────────────────────────────

void Server::migrate_sessions(
    std::size_t from, std::vector<ResizeReport::MigratedSession>& moved) {
  Lane& src = lane(from);
  // Snapshot, then move one session at a time. Each step holds at most one
  // lane lock (never two — lane locks do not nest), and shard_of takes the
  // shared ring lock, so the exclusive ring lock must NOT be held here.
  std::vector<SessionHandle> live;
  {
    std::lock_guard<std::mutex> lock(src.mu);
    live = src.slab.handles();
  }
  for (const SessionHandle handle : live) {
    SessionRecord record;
    {
      std::lock_guard<std::mutex> lock(src.mu);
      const SessionRecord* ptr = src.slab.get(handle);
      if (ptr == nullptr) continue;  // closed since the snapshot
      record = *ptr;
    }
    const std::size_t to = shard_of(record.session_id);
    if (to == from) continue;  // still owned here (growth leaves most be)
    ResizeReport::MigratedSession entry;
    entry.session_id = record.session_id;
    entry.old_handle = handle;
    entry.from = from;
    entry.to = to;
    {
      Lane& dst = lane(to);
      std::lock_guard<std::mutex> lock(dst.mu);
      entry.new_handle = dst.slab.insert(record);
    }
    {
      std::lock_guard<std::mutex> lock(src.mu);
      src.slab.erase(handle);
    }
    moved.push_back(entry);
  }
}

void Server::rehome_items(
    std::size_t from, std::vector<WorkItem>& stranded,
    const std::vector<ResizeReport::MigratedSession>& moved,
    ResizeReport& report, std::vector<ServedResult>& out) {
  Lane& src = lane(from);
  const std::uint64_t now = clock_->now_us();
  for (WorkItem& item : stranded) {
    // Pull the payload off the source lane; it re-parks on the new owner
    // (or dies with the item).
    ServerRequest payload;
    {
      std::lock_guard<std::mutex> lock(src.mu);
      payload = src.payloads[item.payload];
      src.free_payloads.push_back(item.payload);
    }

    const auto emit = [&](const char* reason, core::ScoreStatus status,
                          bool expired) {
      ServedResult result;
      result.request_id = item.request_id;
      result.session_id = item.session_id;
      result.worker = from;
      result.batch_size = 0;
      result.expired_in_queue = expired;
      result.migrated = true;
      result.queue_us = now >= item.enqueued_us ? now - item.enqueued_us : 0;
      result.outcome.status = status;
      result.outcome.reason = reason;
      result.outcome.score = core::kIndeterminateScore;
      out.push_back(result);
    };

    if (item.expired_in_queue ||
        (item.deadline_at_us != kNoDeadline && item.deadline_at_us <= now)) {
      emit("deadline_expired_in_migration", core::ScoreStatus::kDeadlineExceeded,
           /*expired=*/true);
      ++report.items_expired;
      continue;
    }

    // Sessions that moved carry their new handle; an unmoved session's
    // item goes right back where it was (growth restores donor FIFO).
    const std::size_t to = shard_of(item.session_id);
    const bool is_move = to != from;
    for (const auto& entry : moved) {
      if (entry.session_id == item.session_id) {
        item.session = entry.new_handle;
        break;
      }
    }
    if (is_move) ++item.migrations;

    Lane& dst = lane(to);
    {
      std::lock_guard<std::mutex> lock(dst.mu);
      item.payload = park_payload(dst, payload);
    }
    if (dst.shard.requeue(item, /*count_migration=*/is_move)) {
      if (is_move) ++report.items_requeued;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(dst.mu);
      dst.free_payloads.push_back(item.payload);
    }
    emit("migration_requeue_rejected", core::ScoreStatus::kError,
         /*expired=*/false);
    ++report.items_dropped;
  }
  stranded.clear();
}

ResizeReport Server::remove_worker(std::size_t w,
                                   std::vector<ServedResult>& out) {
  VIBGUARD_REQUIRE(w < workers(), "no such worker");
  VIBGUARD_REQUIRE(worker_active(w), "worker already retired");
  ResizeReport report;
  report.worker = w;
  report.removed = true;

  Lane& lane = this->lane(w);
  // Close FIRST, then unmap: a submit racing the removal either lands
  // before the close (and is migrated with the queue below) or gets an
  // explicit kRejectedClosed — it can never be stranded on a shard the
  // ring no longer points at.
  lane.shard.close();
  {
    std::unique_lock<std::shared_mutex> lock(ring_mu_);
    ring_.remove_worker(w);
    states_[w] = WorkerState::kRetired;
  }

  migrate_sessions(w, report.sessions);

  // Re-home everything the dead worker still held: a parked (formed but
  // never completed) batch first — those items are the oldest — then the
  // queue, FIFO.
  std::vector<WorkItem> stranded;
  if (lane.has_batch) {
    lane.has_batch = false;
    stranded.insert(stranded.end(), lane.batch.begin(), lane.batch.end());
    lane.batch.clear();
  }
  lane.shard.take_all(stranded);
  rehome_items(w, stranded, report.sessions, report, out);
  return report;
}

void Server::reclaim_from_donors(const std::vector<std::size_t>& donors,
                                 ResizeReport& report,
                                 std::vector<ServedResult>& out) {
  // Consistent hashing moves only the grown worker's arcs: each existing
  // worker donates exactly the sessions that now hash elsewhere. Donor
  // queues are drained and restored so donated items leave in FIFO order
  // while unmoved items keep their place (requeue preserves enqueued_us,
  // so the round trip is accounting-neutral).
  std::vector<WorkItem> stranded;
  for (const std::size_t v : donors) {
    const std::size_t before = report.sessions.size();
    migrate_sessions(v, report.sessions);
    if (report.sessions.size() == before && lane(v).shard.depth() == 0) {
      continue;
    }
    stranded.clear();
    lane(v).shard.take_all(stranded);
    rehome_items(v, stranded, report.sessions, report, out);
  }
}

std::size_t Server::add_worker(std::vector<ServedResult>& out,
                               ResizeReport* report_out) {
  ResizeReport report;
  report.removed = false;

  std::size_t w = 0;
  std::vector<std::size_t> donors;
  {
    // One exclusive section covers the lane-vector growth AND the ring
    // add: every reader (shard_of, lane, workers) indexes under the
    // shared side, so live pumps never observe a reallocating vector.
    std::unique_lock<std::shared_mutex> lock(ring_mu_);
    w = lanes_.size();
    lanes_.push_back(std::make_unique<Lane>(config_.shard, *clock_));
    states_.push_back(WorkerState::kActive);
    donors = ring_.active_workers();
    ring_.add_worker(w);
  }
  report.worker = w;

  reclaim_from_donors(donors, report, out);
  if (report_out != nullptr) *report_out = std::move(report);
  if (pumps_running()) start_pump(w);
  return w;
}

// ── Quarantine (reversible fence) and work stealing ─────────────────────

ResizeReport Server::quarantine_worker(std::size_t w,
                                       std::vector<ServedResult>& out) {
  VIBGUARD_REQUIRE(w < workers(), "no such worker");
  VIBGUARD_REQUIRE(worker_state(w) == WorkerState::kActive,
                   "only an active worker can be quarantined");
  VIBGUARD_REQUIRE(active_worker_ids().size() > 1,
                   "cannot quarantine the last active worker");
  ResizeReport report;
  report.worker = w;
  report.removed = true;

  Lane& lane = this->lane(w);
  // Unlike remove_worker the shard stays OPEN — the fence must be
  // reversible. Drop the ring points first so no new placement lands
  // here; a submit that read the old placement can still land on the open
  // shard and simply waits out the quarantine (served after restore, or
  // re-homed by retire).
  {
    std::unique_lock<std::shared_mutex> lock(ring_mu_);
    ring_.remove_worker(w);
    states_[w] = WorkerState::kQuarantined;
  }

  migrate_sessions(w, report.sessions);

  // Drain through the steal path: peers take the fenced queue's items
  // (Shard::steal_batch accounting — expired items are flagged and
  // tallied on the victim), then each item is re-homed to its session's
  // new owner with the same never-lose rules as a removal. A parked
  // (formed but uncompleted) batch is re-homed first — its items are the
  // oldest. Passing one vector as both outputs keeps global FIFO order.
  std::vector<WorkItem> stranded;
  if (lane.has_batch) {
    lane.has_batch = false;
    stranded.insert(stranded.end(), lane.batch.begin(), lane.batch.end());
    lane.batch.clear();
  }
  lane.shard.steal_batch(stranded, stranded, SIZE_MAX);
  rehome_items(w, stranded, report.sessions, report, out);
  return report;
}

ResizeReport Server::restore_worker(std::size_t w,
                                    std::vector<ServedResult>& out) {
  VIBGUARD_REQUIRE(w < workers(), "no such worker");
  VIBGUARD_REQUIRE(worker_state(w) == WorkerState::kQuarantined,
                   "only a quarantined worker can be restored");
  ResizeReport report;
  report.worker = w;
  report.removed = false;

  std::vector<std::size_t> donors;
  {
    std::unique_lock<std::shared_mutex> lock(ring_mu_);
    donors = ring_.active_workers();
    ring_.add_worker(w);
    states_[w] = WorkerState::kActive;
  }
  // The ring is deterministic, so `w` gets back exactly the arcs it held
  // before the quarantine — its old sessions come home, nobody else moves.
  reclaim_from_donors(donors, report, out);
  return report;
}

ResizeReport Server::retire_worker(std::size_t w,
                                   std::vector<ServedResult>& out) {
  VIBGUARD_REQUIRE(w < workers(), "no such worker");
  VIBGUARD_REQUIRE(worker_state(w) == WorkerState::kQuarantined,
                   "only a quarantined worker can be retired");
  ResizeReport report;
  report.worker = w;
  report.removed = true;

  Lane& lane = this->lane(w);
  lane.shard.close();
  {
    std::unique_lock<std::shared_mutex> lock(ring_mu_);
    states_[w] = WorkerState::kRetired;
  }
  // The quarantine already moved the sessions and drained the queue;
  // whatever raced in since (stale-placement submits) is re-homed now —
  // the escalation, like the fence, never loses a request.
  migrate_sessions(w, report.sessions);
  std::vector<WorkItem> stranded;
  lane.shard.take_all(stranded);
  rehome_items(w, stranded, report.sessions, report, out);
  return report;
}

std::size_t Server::steal_work(std::size_t thief, std::size_t victim,
                               std::size_t max_items,
                               std::vector<ServedResult>& out) {
  VIBGUARD_REQUIRE(thief != victim, "a shard cannot steal from itself");
  VIBGUARD_REQUIRE(thief < workers() && victim < workers(), "no such worker");
  VIBGUARD_REQUIRE(worker_state(thief) == WorkerState::kActive,
                   "thief must be active");
  if (max_items == 0) return 0;

  Lane& vsrc = this->lane(victim);
  Lane& tdst = this->lane(thief);
  std::vector<WorkItem> stolen;
  std::vector<WorkItem> expired;
  vsrc.shard.steal_batch(stolen, expired, max_items);

  const std::uint64_t now = clock_->now_us();
  const auto emit = [&](const WorkItem& item, std::size_t worker,
                        const char* reason, core::ScoreStatus status,
                        bool was_expired) {
    ServedResult result;
    result.request_id = item.request_id;
    result.session_id = item.session_id;
    result.worker = worker;
    result.batch_size = 0;
    result.expired_in_queue = was_expired;
    result.stolen = true;
    result.queue_us = now >= item.enqueued_us ? now - item.enqueued_us : 0;
    result.outcome.status = status;
    result.outcome.reason = reason;
    result.outcome.score = core::kIndeterminateScore;
    out.push_back(result);
  };

  // Items already expired on the victim's queue head: a result is owed,
  // nothing moves.
  for (const WorkItem& item : expired) {
    {
      std::lock_guard<std::mutex> lock(vsrc.mu);
      vsrc.free_payloads.push_back(item.payload);
    }
    emit(item, victim, "deadline_expired_in_queue",
         core::ScoreStatus::kDeadlineExceeded, /*was_expired=*/true);
  }

  std::size_t moved = 0;
  for (WorkItem item : stolen) {
    // Payload rides along: off the victim's slots, onto the thief's.
    ServerRequest payload;
    {
      std::lock_guard<std::mutex> lock(vsrc.mu);
      payload = vsrc.payloads[item.payload];
      vsrc.free_payloads.push_back(item.payload);
    }
    WorkItem stolen_item = item;
    stolen_item.stolen = true;
    {
      std::lock_guard<std::mutex> lock(tdst.mu);
      stolen_item.payload = park_payload(tdst, payload);
    }
    if (tdst.shard.steal_in(stolen_item)) {
      ++moved;
      continue;
    }
    // Thief refused (tenant quota, full queue, or closed): give the item
    // back to the victim — at the tail, the only FIFO concession the
    // steal path makes — so a failed steal never loses work.
    {
      std::lock_guard<std::mutex> lock(tdst.mu);
      tdst.free_payloads.push_back(stolen_item.payload);
    }
    {
      std::lock_guard<std::mutex> lock(vsrc.mu);
      item.payload = park_payload(vsrc, payload);
    }
    if (vsrc.shard.requeue(item, /*count_migration=*/false)) continue;
    // Victim also refused (closed, or refilled by racing submits): the
    // item is emitted explicitly, never silently dropped.
    {
      std::lock_guard<std::mutex> lock(vsrc.mu);
      vsrc.free_payloads.push_back(item.payload);
    }
    emit(item, victim, "steal_requeue_rejected", core::ScoreStatus::kError,
         /*was_expired=*/false);
  }
  return moved;
}

// ── Thread-per-worker pumps ─────────────────────────────────────────────

std::size_t Server::run_pump(std::size_t w, const ResultSink& sink,
                             const std::atomic<bool>& stop,
                             const PumpConfig& pump) {
  Lane& lane = this->lane(w);
  std::vector<ServedResult> local;
  return lane.shard.run_pump(
      [&](bool force) {
        if (!form_batch(w, force).has_value()) return false;
        local.clear();
        complete_batch(w, local);
        for (const ServedResult& result : local) sink(result);
        return true;
      },
      stop, pump);
}

void Server::start_pumps(ResultSink sink, const PumpConfig& pump) {
  VIBGUARD_REQUIRE(!pumps_running(), "pumps already running");
  VIBGUARD_REQUIRE(sink != nullptr, "pumps need a result sink");
  pump_stop_.store(false, std::memory_order_release);
  pump_sink_ = std::make_shared<ResultSink>(std::move(sink));
  pump_cfg_ = pump;
  pumps_running_.store(true, std::memory_order_release);
  for (const std::size_t w : active_worker_ids()) {
    start_pump(w);
  }
}

void Server::start_pump(std::size_t w) {
  VIBGUARD_REQUIRE(pumps_running(), "start_pumps first");
  std::lock_guard<std::mutex> lock(pumps_mu_);
  for (const auto& entry : pumps_) {
    VIBGUARD_REQUIRE(entry.first != w, "worker already has a live pump");
  }
  auto sink = pump_sink_;
  pumps_.emplace_back(w, std::thread([this, w, sink] {
                        run_pump(w, *sink, pump_stop_, pump_cfg_);
                      }));
}

void Server::fence_pump(std::size_t w) {
  // The epoch bump is the fence: the old pump's next epoch-gated beat
  // fails and it exits without touching the shard again. We do NOT join
  // here — a wedged thread may be stuck for a long time; it is parked on
  // the fenced list and joined at stop_pumps.
  shard(w).bump_epoch();
  std::lock_guard<std::mutex> lock(pumps_mu_);
  for (auto it = pumps_.begin(); it != pumps_.end(); ++it) {
    if (it->first == w) {
      fenced_pumps_.push_back(std::move(it->second));
      pumps_.erase(it);
      break;
    }
  }
}

void Server::restart_pump(std::size_t w) {
  fence_pump(w);
  if (pumps_running()) start_pump(w);
}

void Server::stop_pumps() {
  if (!pumps_running()) return;
  pump_stop_.store(true, std::memory_order_release);
  std::vector<std::pair<std::size_t, std::thread>> live;
  std::vector<std::thread> fenced;
  {
    std::lock_guard<std::mutex> lock(pumps_mu_);
    live.swap(pumps_);
    fenced.swap(fenced_pumps_);
  }
  for (auto& entry : live) entry.second.join();
  for (std::thread& t : fenced) t.join();
  pumps_running_.store(false, std::memory_order_release);
  pump_sink_.reset();
}

}  // namespace vibguard::serving
