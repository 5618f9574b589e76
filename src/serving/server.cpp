#include "serving/server.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace vibguard::serving {
namespace {

/// The cheap route a shard's batches take while its breaker is open.
constexpr core::DefenseMode kDegradedMode = core::DefenseMode::kAudioBaseline;

/// Longest one pump sleep lasts, in microseconds on the server clock: the
/// loop wakes at least this often to re-check its stop flag.
constexpr std::uint64_t kPumpIdlePollUs = 1'000;

/// What one served result tells its shard's breaker. An item that expired
/// in the queue never ran, so it says nothing about the pipeline's health —
/// but if it was the probe, the probe slot must be released.
TrialOutcome trial_outcome(const ServedResult& result) {
  if (result.expired_in_queue) return TrialOutcome::kIndeterminate;
  switch (result.outcome.status) {
    case core::ScoreStatus::kOk: return TrialOutcome::kSuccess;
    case core::ScoreStatus::kError:
    case core::ScoreStatus::kDeadlineExceeded:
      return TrialOutcome::kHardFailure;
    case core::ScoreStatus::kIndeterminate:
      return TrialOutcome::kIndeterminate;
  }
  VIBGUARD_UNREACHABLE();
}

}  // namespace

Server::Server(ServerConfig config, const Clock& clock)
    : config_(config),
      clock_(&clock),
      system_(config.defense),
      ring_(config.workers, kRingReplicas) {
  if (config_.shard.breaker.has_value()) {
    core::DefenseConfig degraded = config_.defense;
    degraded.mode = kDegradedMode;
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

SessionHandle Server::open_session(std::uint64_t session_id) {
  Lane& lane = this->lane(shard_of(session_id));
  std::lock_guard<std::mutex> lock(lane.mu);
  SessionRecord record;
  record.session_id = session_id;
  return lane.slab.insert(record);
}

bool Server::close_session(std::uint64_t session_id, SessionHandle handle) {
  Lane& lane = this->lane(shard_of(session_id));
  std::lock_guard<std::mutex> lock(lane.mu);
  const SessionRecord* record = lane.slab.get(handle);
  if (record == nullptr || record->session_id != session_id) return false;
  return lane.slab.erase(handle);
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
  item.deadline_at_us = kNoDeadline;
  if (config_.deadline_us.has_value()) {
    // Saturates: a budget too large to add to the clock never expires.
    const std::uint64_t now = clock_->now_us();
    item.deadline_at_us = *config_.deadline_us > kNoDeadline - now
                              ? kNoDeadline
                              : now + *config_.deadline_us;
  }
  std::lock_guard<std::mutex> lock(lane.mu);
  const SessionRecord* record = lane.slab.get(session);
  if (record == nullptr || record->session_id != session_id) {
    return SubmitStatus::kStaleSession;
  }
  item.payload = park_payload(lane, request);
  const SubmitStatus status = lane.shard.submit(item);
  if (status != SubmitStatus::kQueued) {
    lane.free_payloads.push_back(item.payload);
  }
  return status;
}

std::optional<std::uint64_t> Server::batch_ready_us(std::size_t w) const {
  const Lane& lane = this->lane(w);
  std::lock_guard<std::mutex> lock(lane.mu);
  return lane.shard.batch_ready_us();
}

ShardStats Server::stats(std::size_t w) const {
  const Lane& lane = this->lane(w);
  std::lock_guard<std::mutex> lock(lane.mu);
  return lane.shard.stats();
}

std::optional<PlannedBatch> Server::form_batch(std::size_t w, bool force) {
  Lane& lane = this->lane(w);
  VIBGUARD_REQUIRE(!lane.has_batch,
                   "complete the previous batch before forming another");
  lane.batch.clear();
  std::optional<FormedBatch> formed;
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    formed = lane.shard.form_batch(lane.batch, force);
  }
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

  // Emit results in batch order.
  const std::size_t first = out.size();
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
    } else {
      result.outcome = lane.outs[next_scored++];
    }
    out.push_back(result);
  }

  // Feed the breaker (primary route only, one outcome per item) and
  // recycle the payload slots, under one lock for the whole batch.
  std::lock_guard<std::mutex> lock(lane.mu);
  for (std::size_t i = 0; i < lane.batch.size(); ++i) {
    if (!lane.formed.degraded) {
      lane.shard.record(trial_outcome(out[first + i]));
    }
    lane.free_payloads.push_back(lane.batch[i].payload);
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
  std::vector<ServedResult> local;
  // Forms and completes one batch, feeding the sink; false when none formed.
  const auto serve_batch = [&](bool force) {
    if (!form_batch(w, force).has_value()) return false;
    local.clear();
    complete_batch(w, local);
    for (const ServedResult& result : local) sink(result);
    return true;
  };
  std::size_t batches = 0;
  for (;;) {
    if (stop.load(std::memory_order_acquire)) {
      // Graceful stop: serve everything still queued (forced windows) so a
      // shutdown never strands admitted work, then leave.
      while (serve_batch(/*force=*/true)) ++batches;
      return batches;
    }
    const auto ready = batch_ready_us(w);
    if (!ready.has_value()) {
      clock_->sleep_us(kPumpIdlePollUs);
      continue;
    }
    const std::uint64_t now = clock_->now_us();
    if (now < *ready) {
      // Sleep toward the window in bounded slices so stop stays
      // responsive.
      clock_->sleep_us(std::min(*ready - now, kPumpIdlePollUs));
      continue;
    }
    if (serve_batch(/*force=*/false)) {
      ++batches;
    } else {
      clock_->sleep_us(kPumpIdlePollUs);
    }
  }
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
