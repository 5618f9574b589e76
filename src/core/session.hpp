// Application-layer session: the policy wrapper a VA integration would use.
//
// Wraps DefenseSystem with the deployment rules from the paper's threat
// model (Sec. II): commands are REJECTED outright when the paired wearable
// is absent, unscoreable commands are retried, every decision is recorded
// in an audit log, and running statistics are kept for monitoring.
//
// Overload handling (bounded queues, deadlines, circuit breaking, degraded
// routing) is not the session's job: serving::Server owns it, and a
// one-worker server is the single serving node.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace vibguard::core {

/// Why a command was accepted or rejected.
enum class Verdict {
  kAccepted,
  kAttackDetected,
  kWearableAbsent,
  /// The command could not be scored trustworthily (quality gate halted,
  /// degenerate features, or a pipeline error) even after the configured
  /// retries. Distinct from kAttackDetected: the integration should
  /// re-request the command rather than treat the user as hostile.
  kIndeterminate,
};

const char* verdict_name(Verdict verdict);

/// Session-level deployment policy.
struct SessionPolicy {
  /// How many times an unscoreable command is re-scored (modeling a
  /// re-request) before the session settles on kIndeterminate. Retries draw
  /// from a decorrelated fork of the command's rng stream, so they are
  /// deterministic but independent of the first attempt.
  std::size_t max_retries = 1;
};

/// One processed command in the audit log.
struct SessionEvent {
  std::size_t index;
  std::string label;    ///< caller-provided description (e.g. command text)
  Verdict verdict;
  double score;          ///< correlation score; NaN when not computed
  std::string note;      ///< why kIndeterminate
  std::size_t attempts = 1;  ///< scoring attempts (1 + retries used)
};

/// Aggregate statistics of a session.
struct SessionStats {
  std::size_t processed = 0;
  std::size_t accepted = 0;
  std::size_t attacks_detected = 0;
  std::size_t wearable_absent = 0;
  std::size_t indeterminate = 0;
  std::size_t retries = 0;  ///< extra scoring attempts across all commands
};

/// One command for DefenseSession::process_batch. Signals are borrowed and
/// must outlive the call; a null `wearable` means no paired wearable
/// responded (policy: reject).
struct SessionRequest {
  std::string label;
  const Signal* va = nullptr;
  const Signal* wearable = nullptr;
  const Segmenter* segmenter = nullptr;  ///< as in DefenseSystem::score
  Rng rng;
};

/// Stateful defense endpoint for a stream of commands.
class DefenseSession {
 public:
  explicit DefenseSession(DefenseConfig config = {}, SessionPolicy policy = {});

  const SessionPolicy& policy() const { return policy_; }

  /// Processes one command. `wearable_recording` is nullopt when no paired
  /// wearable responded (policy: reject). `segmenter` as in DefenseSystem.
  SessionEvent process(const std::string& label, const Signal& va_recording,
                       const std::optional<Signal>& wearable_recording,
                       const Segmenter* segmenter, Rng& rng);

  /// Processes a batch of commands through the batch scoring API.
  /// Equivalent to calling process() per element (same audit-log entries,
  /// statistics and scores); wearable-absent requests are rejected without
  /// being scored. Returns the new audit-log entries.
  std::vector<SessionEvent> process_batch(
      std::span<const SessionRequest> requests);

  const std::vector<SessionEvent>& log() const { return log_; }
  const SessionStats& stats() const { return stats_; }
  const DefenseSystem& system() const { return system_; }

  /// Per-stage pipeline aggregates over every command scored so far.
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

  /// Clears the audit log and all statistics.
  void reset();

 private:
  /// Starts the audit-log entry for the next command.
  SessionEvent open_event(const std::string& label) const;

  /// Retries an unscoreable first `outcome` on forks of `base` (the
  /// command's rng stream at entry), settles the verdict, counts it and
  /// appends the event to the log.
  void settle(SessionEvent& event, ScoreOutcome outcome, const Signal& va,
              const Signal& wearable, const Segmenter* segmenter,
              const Rng& base);

  /// Records a wearable-absent rejection (never scored).
  void reject_absent(SessionEvent& event);

  DefenseSystem system_;
  SessionPolicy policy_;
  Workspace workspace_;
  PipelineTrace trace_;
  PipelineStats pipeline_stats_;
  std::vector<SessionEvent> log_;
  SessionStats stats_;
};

}  // namespace vibguard::core
