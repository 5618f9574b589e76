#include "core/session.hpp"

#include <limits>

#include "common/error.hpp"

namespace vibguard::core {
namespace {

/// Retry forks are labeled from this base ("Retr") so they are decorrelated
/// from every other consumer of the command's rng stream.
constexpr std::uint64_t kRetryForkLabel = 0x52657472ULL;

/// Audit-log phrasing of an unscoreable outcome.
std::string outcome_note(const ScoreOutcome& outcome) {
  if (outcome.status == ScoreStatus::kError) {
    return std::string("error at stage ") + outcome.reason + ": " +
           outcome.error;
  }
  return outcome.reason;
}

}  // namespace

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAccepted: return "accepted";
    case Verdict::kAttackDetected: return "attack_detected";
    case Verdict::kWearableAbsent: return "wearable_absent";
    case Verdict::kIndeterminate: return "indeterminate";
  }
  VIBGUARD_UNREACHABLE();
}

DefenseSession::DefenseSession(DefenseConfig config, SessionPolicy policy)
    : system_(std::move(config)), policy_(policy) {}

SessionEvent DefenseSession::open_event(const std::string& label) const {
  SessionEvent event;
  event.index = log_.size();
  event.label = label;
  event.score = std::numeric_limits<double>::quiet_NaN();
  return event;
}

void DefenseSession::settle(SessionEvent& event, ScoreOutcome outcome,
                            const Signal& va, const Signal& wearable,
                            const Segmenter* segmenter, const Rng& base) {
  // An unscoreable command models as a re-request: retry on a decorrelated
  // fork of the command's entry stream. Forking from `base` (not from the
  // stream the first attempt advanced) keeps sequential and batch
  // processing bit-identical.
  for (std::size_t attempt = 1;
       !outcome.ok() && attempt <= policy_.max_retries; ++attempt) {
    Rng retry_rng = base.fork(kRetryForkLabel + attempt);
    outcome = system_.try_score(va, wearable, segmenter, retry_rng,
                                workspace_, &trace_);
    pipeline_stats_.add(trace_);
    ++stats_.retries;
    event.attempts = attempt + 1;
  }

  if (outcome.ok()) {
    event.score = outcome.score;
    if (outcome.score < system_.config().detection_threshold) {
      event.verdict = Verdict::kAttackDetected;
      ++stats_.attacks_detected;
    } else {
      event.verdict = Verdict::kAccepted;
      ++stats_.accepted;
    }
  } else {
    event.verdict = Verdict::kIndeterminate;
    event.note = outcome_note(outcome);
    ++stats_.indeterminate;
  }
  ++stats_.processed;
  log_.push_back(event);
}

void DefenseSession::reject_absent(SessionEvent& event) {
  // Threat-model policy (Sec. II): "Our defense system rejects voice
  // commands at the VA if the wearable device is absent."
  event.verdict = Verdict::kWearableAbsent;
  ++stats_.wearable_absent;
  ++stats_.processed;
  log_.push_back(event);
}

SessionEvent DefenseSession::process(
    const std::string& label, const Signal& va_recording,
    const std::optional<Signal>& wearable_recording,
    const Segmenter* segmenter, Rng& rng) {
  SessionEvent event = open_event(label);
  if (!wearable_recording.has_value()) {
    reject_absent(event);
    return event;
  }
  const Rng base = rng;
  const ScoreOutcome outcome =
      system_.try_score(va_recording, *wearable_recording, segmenter, rng,
                        workspace_, &trace_);
  pipeline_stats_.add(trace_);
  settle(event, outcome, va_recording, *wearable_recording, segmenter, base);
  return event;
}

std::vector<SessionEvent> DefenseSession::process_batch(
    std::span<const SessionRequest> requests) {
  // Score the wearable-present commands in one batch pass, then emit the
  // audit-log entries in request order.
  std::vector<ScoreRequest> to_score;
  to_score.reserve(requests.size());
  for (const SessionRequest& req : requests) {
    VIBGUARD_REQUIRE(req.va != nullptr, "session request needs a VA signal");
    if (req.wearable == nullptr) continue;
    to_score.push_back(
        ScoreRequest{req.va, req.wearable, req.segmenter, req.rng});
  }
  std::vector<ScoreOutcome> outcomes(to_score.size());
  system_.score_batch(to_score, std::span<ScoreOutcome>(outcomes), workspace_,
                      &trace_, &pipeline_stats_);

  std::vector<SessionEvent> events;
  events.reserve(requests.size());
  std::size_t next_scored = 0;
  for (const SessionRequest& req : requests) {
    SessionEvent event = open_event(req.label);
    if (req.wearable == nullptr) {
      reject_absent(event);
    } else {
      settle(event, outcomes[next_scored++], *req.va, *req.wearable,
             req.segmenter, req.rng);
    }
    events.push_back(event);
  }
  return events;
}

void DefenseSession::reset() {
  log_.clear();
  stats_ = SessionStats{};
  pipeline_stats_.clear();
}

}  // namespace vibguard::core
