#include "linalg/solve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace krak::linalg {
namespace {

TEST(LeastSquares, ExactSystemRecovered) {
  const Matrix a = {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> x_true = {2.0, -3.0};
  const std::vector<double> b = a * std::span<const double>(x_true);
  const LeastSquaresResult result = solve_least_squares(a, b);
  EXPECT_NEAR(result.x[0], 2.0, 1e-12);
  EXPECT_NEAR(result.x[1], -3.0, 1e-12);
  EXPECT_NEAR(result.residual_norm, 0.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedMinimizesResidual) {
  // Fit y = c over observations {1, 2, 3}: the LS answer is the mean.
  const Matrix a = {{1.0}, {1.0}, {1.0}};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  const LeastSquaresResult result = solve_least_squares(a, b);
  EXPECT_NEAR(result.x[0], 2.0, 1e-12);
  EXPECT_NEAR(result.residual_norm, std::sqrt(2.0), 1e-10);
}

TEST(LeastSquares, LineFitMatchesClosedForm) {
  // Fit y = p0 + p1*t over a noisy line.
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {1.1, 2.9, 5.2, 7.1, 8.8};
  Matrix a(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = t[i];
  }
  const LeastSquaresResult result = solve_least_squares(a, y);
  EXPECT_NEAR(result.x[1], 1.97, 0.05);
  EXPECT_NEAR(result.x[0], 1.08, 0.1);
}

TEST(LeastSquares, RankDeficientThrows) {
  const Matrix a = {{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)solve_least_squares(a, b), util::KrakError);
}

TEST(LeastSquares, UnderdeterminedRejected) {
  const Matrix a(1, 2);
  const std::vector<double> b = {1.0};
  EXPECT_THROW((void)solve_least_squares(a, b), util::InvalidArgument);
}

TEST(Nnls, UnconstrainedOptimumIsReturnedWhenNonNegative) {
  const Matrix a = {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> x_true = {2.0, 3.0};
  const std::vector<double> b = a * std::span<const double>(x_true);
  const LeastSquaresResult result = solve_nonnegative_least_squares(a, b);
  EXPECT_NEAR(result.x[0], 2.0, 1e-8);
  EXPECT_NEAR(result.x[1], 3.0, 1e-8);
}

TEST(Nnls, ClampsNegativeComponentToZero) {
  // The unconstrained optimum of this system has a negative second
  // component; NNLS must pin it at zero.
  const Matrix a = {{1.0, 1.0}, {1.0, 1.1}, {1.0, 0.9}};
  const std::vector<double> b = {1.0, 0.7, 1.3};  // decreasing in x2
  const LeastSquaresResult result = solve_nonnegative_least_squares(a, b);
  EXPECT_GE(result.x[0], 0.0);
  EXPECT_DOUBLE_EQ(result.x[1], 0.0);
}

TEST(Nnls, AllZeroRhsGivesZeroSolution) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<double> b = {0.0, 0.0, 0.0};
  const LeastSquaresResult result = solve_nonnegative_least_squares(a, b);
  EXPECT_DOUBLE_EQ(result.x[0], 0.0);
  EXPECT_DOUBLE_EQ(result.x[1], 0.0);
  EXPECT_NEAR(result.residual_norm, 0.0, 1e-12);
}

TEST(Nnls, ResidualNeverWorseThanZeroVector) {
  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(6, 3);
    std::vector<double> b(6);
    for (std::size_t r = 0; r < 6; ++r) {
      b[r] = rng.next_double(-2.0, 2.0);
      for (std::size_t c = 0; c < 3; ++c) {
        a(r, c) = rng.next_double(0.0, 1.0);
      }
    }
    const LeastSquaresResult result = solve_nonnegative_least_squares(a, b);
    for (double x : result.x) EXPECT_GE(x, 0.0);
    EXPECT_LE(result.residual_norm, norm2(b) + 1e-9);
  }
}

TEST(Nnls, RecoversCalibrationStyleSystem) {
  // A miniature of calibration Method 2: per-PE material cell counts
  // against per-phase measured times with known per-cell costs.
  util::Rng rng(11);
  const std::vector<double> costs = {4e-6, 2.5e-6, 1.6e-6, 2.6e-6};
  constexpr std::size_t kPes = 24;
  Matrix a(kPes, 4);
  std::vector<double> b(kPes, 0.0);
  for (std::size_t pe = 0; pe < kPes; ++pe) {
    for (std::size_t m = 0; m < 4; ++m) {
      a(pe, m) = std::floor(rng.next_double(0.0, 500.0));
      b[pe] += a(pe, m) * costs[m];
    }
    b[pe] *= 1.0 + rng.next_double(-0.01, 0.01);  // 1% noise
  }
  const LeastSquaresResult result = solve_nonnegative_least_squares(a, b);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_NEAR(result.x[m], costs[m], costs[m] * 0.2) << "material " << m;
  }
}

}  // namespace
}  // namespace krak::linalg
