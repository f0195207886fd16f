#include "cellspot/util/retry.hpp"

#include <gtest/gtest.h>

namespace cellspot::util {
namespace {

TEST(RetryPolicy, DelayGrowsExponentiallyThenCaps) {
  const RetryPolicy policy{.max_attempts = 10, .base_delay_ticks = 2,
                           .max_delay_ticks = 16};
  EXPECT_EQ(policy.DelayTicks(0), 2u);
  EXPECT_EQ(policy.DelayTicks(1), 4u);
  EXPECT_EQ(policy.DelayTicks(2), 8u);
  EXPECT_EQ(policy.DelayTicks(3), 16u);   // 2<<3 = 16 hits the cap
  EXPECT_EQ(policy.DelayTicks(4), 16u);   // capped
  EXPECT_EQ(policy.DelayTicks(63), 16u);  // shift overflow guarded
}

TEST(RetryCall, FirstAttemptSucceeds) {
  int calls = 0;
  const RetryOutcome outcome = RetryCall(RetryPolicy{.max_attempts = 3}, [&] {
    ++calls;
    return true;
  });
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.retries(), 0u);
  EXPECT_EQ(calls, 1);
}

TEST(RetryCall, SucceedsAfterTransientFailures) {
  int calls = 0;
  const RetryOutcome outcome = RetryCall(RetryPolicy{.max_attempts = 5}, [&] {
    return ++calls == 3;
  });
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.retries(), 2u);
}

TEST(RetryCall, ExhaustsBudgetAndReportsFailure) {
  int calls = 0;
  const RetryOutcome outcome = RetryCall(RetryPolicy{.max_attempts = 4}, [&] {
    ++calls;
    return false;
  });
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 4u);
  EXPECT_EQ(outcome.retries(), 3u);
  EXPECT_EQ(calls, 4);
}

TEST(RetryCall, ZeroAttemptsNeverInvokes) {
  int calls = 0;
  const RetryOutcome outcome = RetryCall(RetryPolicy{.max_attempts = 0}, [&] {
    ++calls;
    return true;
  });
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 0u);
  EXPECT_EQ(outcome.retries(), 0u);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace cellspot::util
