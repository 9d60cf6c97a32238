// util::Deadline: an absolute point in time a chain of waits must finish
// by. Each wait in the chain takes remaining_ms() as its budget, so a
// wedged StoC surfaces as a typed Status at the caller's budget instead of
// after a per-hop default.
#ifndef NOVA_UTIL_RETRY_H_
#define NOVA_UTIL_RETRY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace nova {
namespace util {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  static Deadline After(int64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }
  bool expired() const { return Clock::now() >= at_; }
  /// Milliseconds left, clamped at 0.
  int64_t remaining_ms() const {
    return std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(
               at_ - Clock::now())
               .count());
  }

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}

  Clock::time_point at_;
};

}  // namespace util
}  // namespace nova

#endif  // NOVA_UTIL_RETRY_H_
