#include "serving/server.hpp"

#include <utility>

#include "common/error.hpp"

namespace vibguard::serving {

Server::Server(ServerConfig config, const Clock& clock)
    : config_(config),
      clock_(&clock),
      system_(config.defense),
      ring_(config.workers, kRingReplicas) {
  if (config_.shard.breaker.has_value()) {
    core::DefenseConfig degraded = config_.defense;
    degraded.mode = config_.degraded_mode;
    degraded_system_.emplace(degraded);
  }
  lanes_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    lanes_.push_back(std::make_unique<Lane>(config_.shard, clock));
  }
}

Server::~Server() { stop_pumps(); }

Server::Lane& Server::lane(std::size_t w) const {
  VIBGUARD_REQUIRE(w < lanes_.size(), "no such worker");
  return *lanes_[w];
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
  std::vector<std::size_t>& scored_item = lane.scored_item;
  scored_item.clear();
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
                      lane.workspace);
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
      std::lock_guard<std::mutex> lock(lane.mu);
      SessionRecord* record = lane.slab.get(item.session);
      // Expired drops were never served: the record's counters describe
      // work actually done for the session.
      if (!item.expired_in_queue && record != nullptr &&
          record->session_id == item.session_id) {
        ++record->served;
        record->last_active_us = clock_->now_us();
      }
      lane.free_payloads.push_back(item.payload);
    }
    out.push_back(result);
  }
}

void Server::drain(std::vector<ServedResult>& out) {
  for (std::size_t w = 0; w < workers(); ++w) {
    while (form_batch(w, /*force=*/true).has_value()) {
      complete_batch(w, out);
    }
  }
}

// ── Thread-per-worker pumps ─────────────────────────────────────────────

std::size_t Server::run_pump(std::size_t w, const ResultSink& sink,
                             const std::atomic<bool>& stop) {
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
      stop);
}

void Server::start_pumps(ResultSink sink) {
  VIBGUARD_REQUIRE(!pumps_running(), "pumps already running");
  VIBGUARD_REQUIRE(sink != nullptr, "pumps need a result sink");
  pump_stop_.store(false, std::memory_order_release);
  pump_sink_ = std::move(sink);
  pumps_.reserve(workers());
  for (std::size_t w = 0; w < workers(); ++w) {
    pumps_.emplace_back([this, w] { run_pump(w, pump_sink_, pump_stop_); });
  }
}

void Server::stop_pumps() {
  if (!pumps_running()) return;
  pump_stop_.store(true, std::memory_order_release);
  for (std::thread& pump : pumps_) pump.join();
  pumps_.clear();
  pump_sink_ = nullptr;
}

}  // namespace vibguard::serving
