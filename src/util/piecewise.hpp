#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace krak::util {

/// How x values are interpolated between breakpoints.
enum class Interpolation {
  /// Straight-line interpolation in x.
  kLinear,
  /// Interpolate linearly in log(x); requires all breakpoint x > 0.
  /// Matches the paper's use of cost curves sampled at geometric sizes
  /// (Figure 3's log-log plots).
  kLogX,
};

/// A piecewise-linear function defined by sorted (x, y) breakpoints.
///
/// This is the paper's modeling primitive: both the per-cell computation
/// cost T(phase, material, n) of Section 3 and the message-cost terms
/// L(S), TB(S) of Equation 4 are "piecewise linear equations" built from
/// measured samples. Outside the breakpoint range it holds the first or
/// last y value: a curve is trusted only over the sizes it was sampled
/// at.
class PiecewiseLinear {
 public:
  /// Empty function; add_point() before evaluating.
  PiecewiseLinear() = default;

  /// Build from parallel breakpoint arrays. xs must be strictly
  /// increasing; both spans must be equal, non-empty length.
  PiecewiseLinear(std::span<const double> xs, std::span<const double> ys,
                  Interpolation interp = Interpolation::kLinear);

  /// Insert a breakpoint, keeping xs sorted. Duplicate x replaces y.
  void add_point(double x, double y);

  void set_interpolation(Interpolation interp);

  [[nodiscard]] Interpolation interpolation() const { return interp_; }

  /// Evaluate at x. Requires at least one breakpoint.
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] std::span<const double> xs() const { return xs_; }
  [[nodiscard]] std::span<const double> ys() const { return ys_; }

 private:
  [[nodiscard]] double interp_segment(std::size_t hi_index, double x) const;

  std::vector<double> xs_;
  std::vector<double> ys_;
  Interpolation interp_ = Interpolation::kLinear;
};

}  // namespace krak::util
