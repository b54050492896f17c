#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace krak::linalg {

/// Result of a least-squares solve.
struct LeastSquaresResult {
  std::vector<double> x;
  /// Euclidean norm of the residual A x - b.
  double residual_norm = 0.0;
};

/// Solve min_x ||A x - b||_2 via Householder QR. Requires rows >= cols
/// and full column rank (throws KrakError otherwise).
///
/// This is the solver behind calibration "Method 2" (Section 3.1 of the
/// paper): one equation per (processor, phase) observation, one unknown
/// per material's per-cell cost.
[[nodiscard]] LeastSquaresResult solve_least_squares(Matrix a,
                                                     std::vector<double> b);

/// Solve the same least-squares problem subject to x >= 0, by active-set
/// iteration (Lawson–Hanson NNLS). Per-cell costs are physically
/// non-negative; unconstrained solves can return slightly negative costs
/// when a material barely appears on any processor.
[[nodiscard]] LeastSquaresResult solve_nonnegative_least_squares(
    const Matrix& a, std::span<const double> b);

}  // namespace krak::linalg
