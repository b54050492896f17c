#pragma once

#include <chrono>

namespace krak::util {

/// Monotonic elapsed-seconds stopwatch.
///
/// The only sanctioned wall-clock access outside `src/util` (krak_lint's
/// no-wall-clock rule, docs/STATIC_ANALYSIS.md):
/// measurement sites hold a Stopwatch instead of touching
/// std::chrono clocks directly, which keeps clock reads auditable and
/// out of the deterministic simulation paths — simulated time never
/// comes from here, only profiling of our own code does.
class Stopwatch {
 public:
  /// Starts running at construction.
  Stopwatch() : start_(Clock::now()) {}

  /// Reset the origin to now.
  void restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last restart().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace krak::util
