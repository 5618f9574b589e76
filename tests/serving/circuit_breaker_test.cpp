#include "serving/circuit_breaker.hpp"

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace vibguard::serving {
namespace {

constexpr BreakerConfig kConfig{/*failure_threshold=*/3,
                                /*cooldown_us=*/1000};

TEST(CircuitBreakerTest, StartsClosedAndAllowsPrimary) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow_primary());
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOfOneStage) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow_primary());
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCounts) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_success();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, CooldownLeadsToHalfOpenProbe) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  EXPECT_FALSE(breaker.allow_primary());
  clock.advance(kConfig.cooldown_us - 1);
  EXPECT_FALSE(breaker.allow_primary());
  clock.advance(1);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow_primary());  // the probe goes through
}

TEST(CircuitBreakerTest, ProbeSuccessCloses) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock.advance(kConfig.cooldown_us);
  ASSERT_TRUE(breaker.allow_primary());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow_primary());
  EXPECT_EQ(breaker.trips(), 1u);  // closing does not add a trip
}

TEST(CircuitBreakerTest, ProbeFailureReopensForFullCooldown) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock.advance(kConfig.cooldown_us);
  ASSERT_TRUE(breaker.allow_primary());
  breaker.record_failure();  // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow_primary());
  clock.advance(kConfig.cooldown_us - 1);
  EXPECT_FALSE(breaker.allow_primary());
  clock.advance(1);
  EXPECT_TRUE(breaker.allow_primary());
}

TEST(CircuitBreakerTest, HalfOpenAllowsOnlyOneOutstandingProbe) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock.advance(kConfig.cooldown_us);
  ASSERT_TRUE(breaker.allow_primary());  // the probe
  // A burst of further commands while the probe is outstanding must all
  // take the degraded route — they are not probes.
  EXPECT_FALSE(breaker.allow_primary());
  EXPECT_FALSE(breaker.allow_primary());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_success();  // probe outcome arrives
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, MultiStageFailureCountsAsOneProbeOutcome) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock.advance(kConfig.cooldown_us);
  ASSERT_TRUE(breaker.allow_primary());
  // The probe trial fails in two stages and is reported twice. The first
  // report reopens the breaker; the second is a stale report for the same
  // trial and must not restart the cooldown window.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  clock.advance(kConfig.cooldown_us / 2);
  breaker.record_failure();  // stale: same trial, later stage
  clock.advance(kConfig.cooldown_us / 2);
  // Full cooldown since the FIRST report has elapsed; if the stale report
  // had re-bumped opened_at the breaker would still refuse the probe here.
  EXPECT_TRUE(breaker.allow_primary());
}

TEST(CircuitBreakerTest, IndeterminateProbeDoesNotCloseBreaker) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock.advance(kConfig.cooldown_us);
  ASSERT_TRUE(breaker.allow_primary());
  breaker.record_indeterminate();  // probe was quality-gated: no verdict
  // Not closed (an indeterminate probe is not a success)...
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // ...but the probe slot is released, so the next command probes again
  // instead of the breaker wedging in half-open forever.
  EXPECT_TRUE(breaker.allow_primary());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, IndeterminateWhileClosedKeepsFailureStreaks) {
  VirtualClock clock;
  CircuitBreaker breaker(kConfig, clock);
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_indeterminate();  // neutral: no verdict either way
  breaker.record_failure();  // third consecutive hard failure
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, RejectsDegenerateConfig) {
  VirtualClock clock;
  EXPECT_THROW(CircuitBreaker({0, 1000}, clock), Error);
}

}  // namespace
}  // namespace vibguard::serving
