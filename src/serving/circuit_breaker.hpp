// Circuit breaker with half-open probing.
//
// A primary pipeline that starts failing repeatedly (a dead sensor feed, a
// regression, a backlog that blows every deadline) should not be retried
// blindly on every command: the breaker observes the stream of
// primary-path outcomes, counts consecutive hard failures, and — once the
// streak reaches `failure_threshold` — trips. While tripped (open) the
// caller routes commands to its degraded path instead of the primary
// pipeline. After `cooldown_us` of breaker time the breaker lets exactly
// one probe command through (half-open); a successful probe closes the
// breaker, a failed probe reopens it for another cooldown.
//
// Time flows through the injectable Clock, so with a VirtualClock every
// transition is deterministic and unit-testable. Not thread-safe: the
// owning shard is guarded by its server lane's lock.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/clock.hpp"

namespace vibguard::serving {

struct BreakerConfig {
  /// Consecutive hard failures that trip the breaker.
  std::size_t failure_threshold = 3;
  /// Breaker-clock microseconds the breaker stays open before allowing a
  /// half-open probe.
  std::uint64_t cooldown_us = 5'000'000;
};

enum class BreakerState {
  kClosed,    ///< primary path healthy; all commands routed to it
  kOpen,      ///< tripped; commands routed to the degraded path
  kHalfOpen,  ///< cooldown elapsed; probing the primary path
};

class CircuitBreaker {
 public:
  CircuitBreaker(BreakerConfig config, const Clock& clock);

  /// Current state. Reports kHalfOpen once an open breaker's cooldown has
  /// elapsed (the transition itself is committed by allow_primary()).
  BreakerState state() const;

  /// Routing decision for the next command: true = run the primary
  /// pipeline (closed, or a half-open probe), false = run the degraded
  /// path. Commits the open → half-open transition when the cooldown has
  /// elapsed. While half-open at most one probe is outstanding at a time:
  /// further calls return false (degraded) until the probe's outcome is
  /// reported, so a trial reported more than once — or a burst of
  /// concurrent commands — cannot count as more than one probe.
  bool allow_primary();

  /// Reports the outcome of a primary-path command. Only hard failures
  /// (stage errors, deadline expiry) should be recorded as failures —
  /// quality-gated inputs are the input's fault, not the pipeline's. Each
  /// call resolves at most one outstanding half-open probe; extra reports
  /// for the same trial land in the open state and are ignored.
  void record_success();
  void record_failure();

  /// Reports a primary-path command that ended without a verdict on the
  /// pipeline's health (quality-gated input, kIndeterminate). Neutral:
  /// never trips, never closes. In half-open it releases the probe slot so
  /// the next command can probe again — an indeterminate probe must not
  /// close the breaker as a success, but must not wedge probing either.
  void record_indeterminate();

  /// Lifetime count of closed→open transitions.
  std::uint64_t trips() const { return trips_; }

 private:
  void open_now();

  BreakerConfig config_;
  const Clock* clock_;
  BreakerState state_ = BreakerState::kClosed;
  std::uint64_t opened_at_us_ = 0;
  /// True while a half-open probe has been dispatched but its outcome not
  /// yet reported; gates allow_primary() to one probe at a time.
  bool probe_outstanding_ = false;
  std::uint64_t trips_ = 0;
  /// Consecutive hard failures on the primary path; any success clears it.
  std::size_t consecutive_failures_ = 0;
};

}  // namespace vibguard::serving
