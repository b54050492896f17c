#include "util/units.hpp"

#include <gtest/gtest.h>

namespace krak::util {
namespace {

TEST(Units, TimeLiterals) {
  EXPECT_DOUBLE_EQ(microseconds(4.5), 4.5e-6);
  EXPECT_DOUBLE_EQ(nanoseconds(3.28), 3.28e-9);
}

TEST(Units, ConstexprUsable) {
  // The helpers are constexpr; equality up to one ulp of the scaling.
  constexpr double latency = microseconds(5.0);
  static_assert(latency > 4.9e-6 && latency < 5.1e-6);
  SUCCEED();
}

}  // namespace
}  // namespace krak::util
