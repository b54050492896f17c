#pragma once

#include <cstddef>

namespace krak::util {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long calibration sweeps; O(1) state.
class OnlineStats {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace krak::util
