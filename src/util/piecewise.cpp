#include "util/piecewise.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace krak::util {

PiecewiseLinear::PiecewiseLinear(std::span<const double> xs,
                                 std::span<const double> ys,
                                 Interpolation interp)
    : interp_(interp) {
  check(xs.size() == ys.size(), "PiecewiseLinear spans must match in length");
  check(!xs.empty(), "PiecewiseLinear requires at least one breakpoint");
  for (std::size_t i = 1; i < xs.size(); ++i) {
    check(xs[i] > xs[i - 1], "PiecewiseLinear xs must be strictly increasing");
  }
  if (interp_ == Interpolation::kLogX) {
    check(xs.front() > 0.0, "kLogX interpolation requires positive x values");
  }
  xs_.assign(xs.begin(), xs.end());
  ys_.assign(ys.begin(), ys.end());
}

void PiecewiseLinear::add_point(double x, double y) {
  if (interp_ == Interpolation::kLogX) {
    check(x > 0.0, "kLogX interpolation requires positive x values");
  }
  const auto it = std::lower_bound(xs_.begin(), xs_.end(), x);
  const auto index = static_cast<std::size_t>(it - xs_.begin());
  if (it != xs_.end() && *it == x) {
    ys_[index] = y;
    return;
  }
  xs_.insert(it, x);
  ys_.insert(ys_.begin() + static_cast<std::ptrdiff_t>(index), y);
}

void PiecewiseLinear::set_interpolation(Interpolation interp) {
  if (interp == Interpolation::kLogX && !xs_.empty()) {
    check(xs_.front() > 0.0, "kLogX interpolation requires positive x values");
  }
  interp_ = interp;
}

double PiecewiseLinear::interp_segment(std::size_t hi_index, double x) const {
  const double x0 = xs_[hi_index - 1];
  const double x1 = xs_[hi_index];
  const double y0 = ys_[hi_index - 1];
  const double y1 = ys_[hi_index];
  double t = 0.0;
  if (interp_ == Interpolation::kLogX) {
    // Callers with kLogX guarantee x > 0 via evaluation-time check.
    t = (std::log(x) - std::log(x0)) / (std::log(x1) - std::log(x0));
  } else {
    t = (x - x0) / (x1 - x0);
  }
  return y0 + t * (y1 - y0);
}

double PiecewiseLinear::operator()(double x) const {
  check(!xs_.empty(), "evaluating an empty PiecewiseLinear");
  if (interp_ == Interpolation::kLogX) {
    check(x > 0.0, "kLogX interpolation requires positive query x");
  }
  if (xs_.size() == 1) return ys_.front();

  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const auto hi = static_cast<std::size_t>(it - xs_.begin());
  return interp_segment(hi, x);
}

}  // namespace krak::util
