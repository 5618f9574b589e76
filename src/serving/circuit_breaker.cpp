#include "serving/circuit_breaker.hpp"

#include "common/error.hpp"

namespace vibguard::serving {

CircuitBreaker::CircuitBreaker(BreakerConfig config, const Clock& clock)
    : config_(config), clock_(&clock) {
  VIBGUARD_REQUIRE(config_.failure_threshold > 0,
                   "failure threshold must be positive");
}

BreakerState CircuitBreaker::state() const {
  if (state_ == BreakerState::kOpen &&
      clock_->now_us() - opened_at_us_ >= config_.cooldown_us) {
    return BreakerState::kHalfOpen;
  }
  return state_;
}

bool CircuitBreaker::allow_primary() {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (clock_->now_us() - opened_at_us_ >= config_.cooldown_us) {
        state_ = BreakerState::kHalfOpen;
        probe_outstanding_ = true;
        return true;  // the probe
      }
      return false;
    case BreakerState::kHalfOpen:
      if (probe_outstanding_) return false;  // one probe at a time
      probe_outstanding_ = true;
      return true;
  }
  VIBGUARD_UNREACHABLE();
}

void CircuitBreaker::open_now() {
  state_ = BreakerState::kOpen;
  opened_at_us_ = clock_->now_us();
  probe_outstanding_ = false;
  consecutive_failures_ = 0;
}

void CircuitBreaker::record_success() {
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      return;
    case BreakerState::kHalfOpen:
      // The probe succeeded: the primary path is healthy again.
      probe_outstanding_ = false;
      state_ = BreakerState::kClosed;
      consecutive_failures_ = 0;
      return;
    case BreakerState::kOpen:
      // Degraded-path outcomes are not reported here; a success while open
      // can only be a stale report and is ignored.
      return;
  }
  VIBGUARD_UNREACHABLE();
}

void CircuitBreaker::record_failure() {
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) {
        ++trips_;
        open_now();
      }
      return;
    case BreakerState::kHalfOpen:
      // The probe failed: back to a full cooldown.
      open_now();
      return;
    case BreakerState::kOpen:
      return;
  }
  VIBGUARD_UNREACHABLE();
}

void CircuitBreaker::record_indeterminate() {
  switch (state_) {
    case BreakerState::kClosed:
      // No verdict on pipeline health: neither clears nor extends the
      // consecutive-failure streak.
      return;
    case BreakerState::kHalfOpen:
      // The probe came back without a verdict: release the probe slot so
      // the next command can probe, but stay half-open — an indeterminate
      // probe is not a success.
      probe_outstanding_ = false;
      return;
    case BreakerState::kOpen:
      return;
  }
  VIBGUARD_UNREACHABLE();
}

}  // namespace vibguard::serving
