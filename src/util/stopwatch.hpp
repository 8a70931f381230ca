// Wall-clock stopwatch for coarse timing of training/eval loops, and the
// serving layer's clock.
//
// Modeled inference latency/energy in the benches comes from the
// hw::CycleModel (deterministic), not from this wall clock. now_us() is
// the serving clock: request enqueue times, deadlines and batch-close
// times (RequestQueue::pop_batch) are all read from it.
#pragma once

#include <chrono>
#include <cstdint>

namespace mfdfp::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Resets the reference point to now.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

  /// Whole microseconds elapsed (monotonic; what the serving layer records
  /// into latency histograms).
  [[nodiscard]] std::int64_t micros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Monotonic microsecond timestamp with an arbitrary (per-process) epoch.
  /// Differences between two calls are valid durations; the absolute value
  /// is meaningless. Used for request enqueue/deadline accounting.
  [[nodiscard]] static std::int64_t now_us() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mfdfp::util
