// Deterministic retry with capped exponential backoff.
//
// RetryPolicy is clock-free by design: delays are expressed in abstract
// *ticks* (whatever unit the caller's scheduler advances — the stream
// daemon's tick loop, a test's loop counter), so a policy reproduces the
// same delay sequence on every run. Nothing here sleeps or reads a wall
// clock; callers decide what a tick means.
//
// Two usage shapes:
//   * Immediate retries (file IO, where waiting in-process buys nothing):
//     RetryCall(policy, fn) re-invokes fn up to max_attempts times and
//     reports how many retries it took.
//   * Scheduled retries (the daemon's checkpoint writer): after a failed
//     attempt k, DelayTicks(k) says how many ticks to wait before
//     attempt k+1; the caller re-tries when its tick counter catches up.
#pragma once

#include <cstdint>

namespace cellspot::util {

struct RetryPolicy {
  /// Total attempts, including the first (1 = no retries).
  std::uint32_t max_attempts = 3;

  /// Backoff for the wait after attempt k (0-based): min(base << k, cap).
  std::uint32_t base_delay_ticks = 1;
  std::uint32_t max_delay_ticks = 64;

  /// Ticks to wait after failed attempt `attempt` (0-based) before the
  /// next one: exponential in the attempt index, capped.
  [[nodiscard]] std::uint64_t DelayTicks(std::uint32_t attempt) const {
    if (attempt < 32 && (static_cast<std::uint64_t>(base_delay_ticks) << attempt) <
                            max_delay_ticks) {
      return static_cast<std::uint64_t>(base_delay_ticks) << attempt;
    }
    return max_delay_ticks;
  }
};

/// Outcome of an immediate retry loop.
struct RetryOutcome {
  bool ok = false;
  std::uint32_t attempts = 0;  // invocations made (>= 1 unless max_attempts == 0)

  [[nodiscard]] std::uint32_t retries() const noexcept {
    return attempts > 0 ? attempts - 1 : 0;
  }
};

/// Invoke `fn` (returning bool) until it succeeds or the policy's
/// attempt budget is spent. No in-process delay between attempts — this
/// shape is for filesystem operations where the retry is about transient
/// EBUSY/ENOSPC-style conditions, not about waiting out a remote peer.
template <typename Fn>
RetryOutcome RetryCall(const RetryPolicy& policy, Fn&& fn) {
  RetryOutcome outcome;
  for (std::uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    ++outcome.attempts;
    if (fn()) {
      outcome.ok = true;
      return outcome;
    }
  }
  return outcome;
}

}  // namespace cellspot::util
