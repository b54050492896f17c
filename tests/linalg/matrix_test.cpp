#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace krak::linalg {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), 0.0);
    }
  }
}

TEST(Matrix, InitializerListLayout) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, InitializerListRejectsRaggedRows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), util::InvalidArgument);
}

TEST(Matrix, ZeroDimensionRejected) {
  EXPECT_THROW(Matrix(0, 3), util::InvalidArgument);
  EXPECT_THROW(Matrix(3, 0), util::InvalidArgument);
}

TEST(Matrix, TransposeSwapsIndices) {
  const Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<double> x = {1.0, -1.0};
  const std::vector<double> y = a * std::span<const double>(x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(VectorOps, Norm2AndDot) {
  const std::vector<double> a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  const std::vector<double> short_vec = {1.0};
  EXPECT_THROW((void)dot(a, short_vec), util::InvalidArgument);
}

}  // namespace
}  // namespace krak::linalg
