#include "util/piecewise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace krak::util {
namespace {

TEST(PiecewiseLinear, EmptyFunctionThrowsOnEvaluation) {
  PiecewiseLinear f;
  EXPECT_TRUE(f.empty());
  EXPECT_THROW((void)f(1.0), InvalidArgument);
}

TEST(PiecewiseLinear, SinglePointIsConstant) {
  PiecewiseLinear f;
  f.add_point(10.0, 3.5);
  EXPECT_DOUBLE_EQ(f(0.0), 3.5);
  EXPECT_DOUBLE_EQ(f(10.0), 3.5);
  EXPECT_DOUBLE_EQ(f(1e9), 3.5);
}

TEST(PiecewiseLinear, InterpolatesLinearlyBetweenBreakpoints) {
  const std::vector<double> xs = {0.0, 10.0};
  const std::vector<double> ys = {0.0, 100.0};
  const PiecewiseLinear f(xs, ys);
  EXPECT_DOUBLE_EQ(f(5.0), 50.0);
  EXPECT_DOUBLE_EQ(f(2.5), 25.0);
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(10.0), 100.0);
}

TEST(PiecewiseLinear, ClampExtrapolationHoldsEndValues) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {10.0, 20.0};
  const PiecewiseLinear f(xs, ys);
  EXPECT_DOUBLE_EQ(f(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f(3.0), 20.0);
}

TEST(PiecewiseLinear, LogXInterpolationIsLinearInLogSpace) {
  const std::vector<double> xs = {1.0, 100.0};
  const std::vector<double> ys = {0.0, 2.0};
  const PiecewiseLinear f(xs, ys, Interpolation::kLogX);
  // Halfway in log10 space: x = 10.
  EXPECT_NEAR(f(10.0), 1.0, 1e-12);
}

TEST(PiecewiseLinear, LogXRejectsNonPositiveInputs) {
  const std::vector<double> xs = {1.0, 100.0};
  const std::vector<double> ys = {0.0, 2.0};
  const PiecewiseLinear f(xs, ys, Interpolation::kLogX);
  EXPECT_THROW((void)f(0.0), InvalidArgument);
  EXPECT_THROW((void)f(-1.0), InvalidArgument);
}

TEST(PiecewiseLinear, LogXRejectsNonPositiveBreakpoints) {
  const std::vector<double> xs = {0.0, 1.0};
  const std::vector<double> ys = {0.0, 1.0};
  EXPECT_THROW(PiecewiseLinear(xs, ys, Interpolation::kLogX), InvalidArgument);
}

TEST(PiecewiseLinear, ModeAccessorsReportConfiguration) {
  PiecewiseLinear f;
  EXPECT_EQ(f.interpolation(), Interpolation::kLinear);
  f.set_interpolation(Interpolation::kLogX);
  EXPECT_EQ(f.interpolation(), Interpolation::kLogX);

  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {1.0, 4.0};
  const PiecewiseLinear g(xs, ys, Interpolation::kLogX);
  EXPECT_EQ(g.interpolation(), Interpolation::kLogX);
}

TEST(PiecewiseLinear, AccessorsRoundTripThroughConstructor) {
  // Rebuilding from xs()/ys() plus the mode accessor reproduces the
  // function everywhere — the contract MessageCostModel::scaled relies
  // on.
  const std::vector<double> xs = {1.0, 10.0, 100.0};
  const std::vector<double> ys = {5.0, 3.0, 2.0};
  const PiecewiseLinear f(xs, ys, Interpolation::kLogX);
  const PiecewiseLinear g(f.xs(), f.ys(), f.interpolation());
  for (double x : {1.0, 3.0, 10.0, 42.0, 100.0, 1000.0}) {
    EXPECT_DOUBLE_EQ(g(x), f(x)) << "at " << x;
  }
}

TEST(PiecewiseLinear, AddPointKeepsSortedOrder) {
  PiecewiseLinear f;
  f.add_point(10.0, 1.0);
  f.add_point(1.0, 5.0);
  f.add_point(5.0, 3.0);
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(std::vector<double>(f.xs().begin(), f.xs().end()),
            (std::vector<double>{1.0, 5.0, 10.0}));
  EXPECT_DOUBLE_EQ(f(5.0), 3.0);
}

TEST(PiecewiseLinear, DuplicateXReplacesY) {
  PiecewiseLinear f;
  f.add_point(1.0, 5.0);
  f.add_point(1.0, 7.0);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f(1.0), 7.0);
}

TEST(PiecewiseLinear, ConstructorRejectsUnsortedBreakpoints) {
  const std::vector<double> xs = {2.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0};
  EXPECT_THROW(PiecewiseLinear(xs, ys), InvalidArgument);
}

TEST(PiecewiseLinear, ConstructorRejectsLengthMismatch) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {1.0};
  EXPECT_THROW(PiecewiseLinear(xs, ys), InvalidArgument);
}

/// Property sweep: interpolation of a convex function over-estimates,
/// which is the mathematical root of the paper's knee error.
class ConvexInterpolationTest : public ::testing::TestWithParam<double> {};

TEST_P(ConvexInterpolationTest, LinearInterpolationOverestimatesConvex) {
  // f(n) = 1/n sampled at powers of two, queried between samples.
  PiecewiseLinear f;
  for (double x = 1.0; x <= 1024.0; x *= 2.0) f.add_point(x, 1.0 / x);
  const double x = GetParam();
  EXPECT_GE(f(x), 1.0 / x);
}

INSTANTIATE_TEST_SUITE_P(MidpointQueries, ConvexInterpolationTest,
                         ::testing::Values(1.5, 3.0, 6.0, 12.0, 24.0, 48.0,
                                           96.0, 192.0, 384.0, 768.0));

/// Interpolation must stay within the bracketing sample values.
class BoundednessTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BoundednessTest, InterpolantBoundedBySamples) {
  PiecewiseLinear f;
  f.add_point(1.0, 2.0);
  f.add_point(10.0, 8.0);
  f.add_point(100.0, 4.0);
  const auto [x, unused] = GetParam();
  (void)unused;
  const double y = f(x);
  EXPECT_GE(y, 2.0);
  EXPECT_LE(y, 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, BoundednessTest,
    ::testing::Values(std::pair{0.5, 0.0}, std::pair{1.0, 0.0},
                      std::pair{3.0, 0.0}, std::pair{10.0, 0.0},
                      std::pair{55.0, 0.0}, std::pair{100.0, 0.0},
                      std::pair{1e6, 0.0}));

}  // namespace
}  // namespace krak::util
