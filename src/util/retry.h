// Unified retry/deadline machinery (ISSUE 9): a Deadline that propagates
// through RPC call chains (StocClient -> rdma::Future::Wait) so a wedged
// StoC surfaces as a typed Status::Unavailable at the configured budget
// instead of a hard-coded 30 s IOError, and a RetryPolicy with
// exponential backoff + deterministic jitter replacing the scattered
// ad-hoc timeout_ms constants.
#ifndef NOVA_UTIL_RETRY_H_
#define NOVA_UTIL_RETRY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/status.h"

namespace nova {
namespace util {

/// An absolute point in time a call chain must finish by. Passed down by
/// value; remaining_ms() shrinks as layers consume budget, so the
/// innermost wait (rdma::Future::Wait) times out exactly when the
/// outermost caller's budget is gone.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// An infinite deadline (never expires).
  Deadline() = default;

  static Deadline After(int64_t ms) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }
  bool expired() const { return has_deadline_ && Clock::now() >= at_; }

  /// Milliseconds left, clamped at 0. For infinite deadlines returns
  /// `cap_ms` (callers that need a finite poll interval pass one).
  int64_t remaining_ms(int64_t cap_ms = INT64_MAX) const {
    if (!has_deadline_) return cap_ms;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    at_ - Clock::now())
                    .count();
    return std::max<int64_t>(0, std::min<int64_t>(left, cap_ms));
  }

  Clock::time_point at() const { return at_; }

 private:
  bool has_deadline_ = false;
  Clock::time_point at_{};
};

/// Exponential backoff with deterministic jitter. One policy object per
/// call site; Backoff(attempt) is stateless so policies can live in
/// options structs and be shared across threads.
struct RetryPolicy {
  int max_attempts = 3;
  int64_t base_backoff_us = 200;
  int64_t max_backoff_us = 50 * 1000;
  /// Jitter fraction in [0,1): each backoff is scaled by a deterministic
  /// per-attempt factor in [1-jitter, 1].
  double jitter = 0.25;

  int64_t BackoffUs(int attempt, uint64_t salt = 0) const {
    if (attempt <= 0) return 0;
    int64_t b = base_backoff_us;
    for (int i = 1; i < attempt && b < max_backoff_us; i++) b *= 2;
    b = std::min(b, max_backoff_us);
    if (jitter > 0) {
      // splitmix64 of (attempt, salt): deterministic, no global state.
      uint64_t z = (static_cast<uint64_t>(attempt) * 0x9e3779b97f4a7c15ull) ^
                   (salt + 0x2545f4914f6cdd1dull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      double u = static_cast<double>((z ^ (z >> 31)) >> 11) *
                 (1.0 / 9007199254740992.0);
      b = static_cast<int64_t>(b * (1.0 - jitter * u));
    }
    return b;
  }

  /// True if `s` is worth retrying: transient unavailability or a timed
  /// out RPC, never data errors (Corruption/NotFound/InvalidArgument).
  static bool Retriable(const Status& s) {
    return s.IsUnavailable() || s.IsBusy();
  }

  /// Run `op` (a callable returning Status) up to max_attempts times,
  /// backing off between attempts, never past `deadline`.
  template <typename Op>
  Status Run(const Deadline& deadline, uint64_t salt, Op&& op) const {
    Status s;
    for (int attempt = 0; attempt < max_attempts; attempt++) {
      if (deadline.expired()) {
        return Status::Unavailable("deadline exceeded before attempt");
      }
      s = op();
      if (s.ok() || !Retriable(s)) return s;
      if (attempt + 1 < max_attempts) {
        int64_t backoff = BackoffUs(attempt + 1, salt);
        int64_t budget_us = deadline.remaining_ms(INT64_MAX / 2) * 1000;
        std::this_thread::sleep_for(
            std::chrono::microseconds(std::min(backoff, budget_us)));
      }
    }
    return s;
  }
};

}  // namespace util
}  // namespace nova

#endif  // NOVA_UTIL_RETRY_H_
