#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace krak::util {
namespace {

TEST(OnlineStats, EmptyThrowsOnQueries) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW((void)s.mean(), InvalidArgument);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic data set: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

}  // namespace
}  // namespace krak::util
