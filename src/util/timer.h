// Wall-clock timing helpers for build/probe phase measurements.

#ifndef ACTJOIN_UTIL_TIMER_H_
#define ACTJOIN_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace actjoin::util {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// ElapsedSeconds() and Restart() at the same instant (one clock read),
  /// so consecutive laps tile the interval with nothing between them.
  double LapSeconds() {
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Reads the CPU timestamp counter. Used as a cycles proxy when hardware
/// perf events are unavailable (common in containers).
inline uint64_t ReadTsc() {
#if defined(__x86_64__)
  uint32_t lo, hi;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<uint64_t>(hi) << 32) | lo;
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

}  // namespace actjoin::util

#endif  // ACTJOIN_UTIL_TIMER_H_
