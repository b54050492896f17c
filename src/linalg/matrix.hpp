#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace krak::linalg {

/// Dense row-major matrix of doubles.
///
/// Sized for the calibration problems in this project: systems with one
/// row per (processor, phase) observation and one column per material —
/// at most a few thousand rows by a handful of columns. No attempt is
/// made at cache blocking or BLAS dispatch.
class Matrix {
 public:
  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Build from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Unchecked element access.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] Matrix transposed() const;

  /// Matrix-vector product; x.size() must equal cols().
  [[nodiscard]] std::vector<double> operator*(std::span<const double> x) const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
[[nodiscard]] double norm2(std::span<const double> v);

/// Dot product; spans must be equal length.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

}  // namespace krak::linalg
