#pragma once

namespace krak::mesh {

/// 2-D point. The deck's x axis is the radial direction (distance from
/// the axis of rotation) and y is the axial direction; rotating the
/// rectangle about x = 0 produces the paper's cylindrical domain.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point&, const Point&) = default;
};

}  // namespace krak::mesh
