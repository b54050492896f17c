#include "linalg/matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace krak::linalg {

using util::check;

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
  check(rows > 0 && cols > 0, "Matrix dimensions must be positive");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  check(rows.size() > 0, "Matrix initializer must be non-empty");
  rows_ = rows.size();
  cols_ = rows.begin()->size();
  check(cols_ > 0, "Matrix rows must be non-empty");
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    check(row.size() == cols_, "Matrix initializer rows must be equal length");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

std::vector<double> Matrix::operator*(std::span<const double> x) const {
  check(x.size() == cols_, "Matrix-vector dimension mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += (*this)(r, c) * x[c];
    out[r] = sum;
  }
  return out;
}

double norm2(std::span<const double> v) {
  double sum = 0.0;
  for (double x : v) sum += x * x;
  return std::sqrt(sum);
}

double dot(std::span<const double> a, std::span<const double> b) {
  check(a.size() == b.size(), "dot requires equal-length spans");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace krak::linalg
