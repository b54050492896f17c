#pragma once

namespace krak::util {

/// Time is represented throughout krakmodel as seconds in double
/// precision; these helpers make literals self-documenting.
[[nodiscard]] constexpr double microseconds(double us) { return us * 1e-6; }
[[nodiscard]] constexpr double nanoseconds(double ns) { return ns * 1e-9; }

}  // namespace krak::util
