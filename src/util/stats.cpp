#include "util/stats.hpp"

#include <cmath>

#include "util/error.hpp"

namespace krak::util {

void OnlineStats::add(double value) {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double OnlineStats::mean() const {
  check(count_ > 0, "OnlineStats::mean requires at least one sample");
  return mean_;
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

}  // namespace krak::util
