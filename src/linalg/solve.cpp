#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace krak::linalg {

using util::check;

LeastSquaresResult solve_least_squares(Matrix a, std::vector<double> b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  check(m >= n, "solve_least_squares requires rows >= cols");
  check(m == b.size(), "solve_least_squares dimension mismatch");

  // Rank tolerance relative to the largest column norm: columns whose
  // remaining mass falls below it are treated as linearly dependent.
  double max_column_norm = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    double norm = 0.0;
    for (std::size_t r = 0; r < m; ++r) norm += a(r, c) * a(r, c);
    max_column_norm = std::max(max_column_norm, std::sqrt(norm));
  }
  const double rank_tolerance =
      std::max(1e-300, 1e-10 * max_column_norm);

  // Householder QR applied in place; b is transformed alongside.
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t r = k; r < m; ++r) norm += a(r, k) * a(r, k);
    norm = std::sqrt(norm);
    if (norm < rank_tolerance) {
      throw util::KrakError("solve_least_squares: rank-deficient matrix");
    }
    const double alpha = (a(k, k) >= 0.0) ? -norm : norm;
    // Householder vector v with v[k] = a(k,k) - alpha, v[r>k] = a(r,k).
    std::vector<double> v(m - k);
    v[0] = a(k, k) - alpha;
    for (std::size_t r = k + 1; r < m; ++r) v[r - k] = a(r, k);
    const double vnorm2 = dot(v, v);
    if (vnorm2 > 0.0) {
      // Apply H = I - 2 v v^T / (v^T v) to remaining columns and to b.
      for (std::size_t c = k; c < n; ++c) {
        double proj = 0.0;
        for (std::size_t r = k; r < m; ++r) proj += v[r - k] * a(r, c);
        const double scale = 2.0 * proj / vnorm2;
        for (std::size_t r = k; r < m; ++r) a(r, c) -= scale * v[r - k];
      }
      double proj_b = 0.0;
      for (std::size_t r = k; r < m; ++r) proj_b += v[r - k] * b[r];
      const double scale_b = 2.0 * proj_b / vnorm2;
      for (std::size_t r = k; r < m; ++r) b[r] -= scale_b * v[r - k];
    }
    a(k, k) = alpha;
    for (std::size_t r = k + 1; r < m; ++r) a(r, k) = 0.0;
  }

  LeastSquaresResult result;
  result.x.assign(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a(ri, c) * result.x[c];
    if (std::abs(a(ri, ri)) < rank_tolerance) {
      throw util::KrakError("solve_least_squares: rank-deficient matrix");
    }
    result.x[ri] = sum / a(ri, ri);
  }
  double res = 0.0;
  for (std::size_t r = n; r < m; ++r) res += b[r] * b[r];
  result.residual_norm = std::sqrt(res);
  return result;
}

LeastSquaresResult solve_nonnegative_least_squares(const Matrix& a,
                                                   std::span<const double> b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  check(m >= n, "NNLS requires rows >= cols");
  check(m == b.size(), "NNLS dimension mismatch");

  // Lawson–Hanson active set. Passive set P holds indices allowed to be
  // positive; all others are pinned to zero.
  std::vector<bool> passive(n, false);
  std::vector<double> x(n, 0.0);
  const Matrix at = a.transposed();

  const auto residual = [&](const std::vector<double>& xx) {
    std::vector<double> r(m);
    for (std::size_t i = 0; i < m; ++i) {
      double ax = 0.0;
      for (std::size_t j = 0; j < n; ++j) ax += a(i, j) * xx[j];
      r[i] = b[i] - ax;
    }
    return r;
  };

  // Solve the unconstrained least-squares over the passive columns.
  const auto solve_passive = [&](std::vector<std::size_t>& idx) {
    idx.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (passive[j]) idx.push_back(j);
    }
    std::vector<double> z(n, 0.0);
    if (idx.empty()) return z;
    Matrix sub(m, idx.size());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t jj = 0; jj < idx.size(); ++jj) {
        sub(i, jj) = a(i, idx[jj]);
      }
    }
    const auto partial =
        solve_least_squares(sub, std::vector<double>(b.begin(), b.end()));
    for (std::size_t jj = 0; jj < idx.size(); ++jj) {
      z[idx[jj]] = partial.x[jj];
    }
    return z;
  };

  constexpr std::size_t kMaxOuter = 200;
  constexpr double kTolerance = 1e-12;
  std::vector<std::size_t> idx;
  for (std::size_t outer = 0; outer < kMaxOuter; ++outer) {
    const std::vector<double> r = residual(x);
    const std::vector<double> w = at * std::span<const double>(r);
    // Pick the most-violated zero constraint.
    std::size_t best = n;
    double best_w = kTolerance;
    for (std::size_t j = 0; j < n; ++j) {
      if (!passive[j] && w[j] > best_w) {
        best_w = w[j];
        best = j;
      }
    }
    if (best == n) break;  // KKT satisfied
    passive[best] = true;

    for (;;) {
      std::vector<double> z = solve_passive(idx);
      // If the candidate keeps all passive entries positive, accept it.
      bool all_positive = true;
      for (std::size_t j : idx) {
        if (z[j] <= kTolerance) {
          all_positive = false;
          break;
        }
      }
      if (all_positive) {
        x = std::move(z);
        break;
      }
      // Otherwise move as far toward z as feasibility allows and drop
      // the blocking variables from the passive set.
      double alpha = std::numeric_limits<double>::infinity();
      for (std::size_t j : idx) {
        if (z[j] <= kTolerance) {
          const double denom = x[j] - z[j];
          if (denom > 0.0) alpha = std::min(alpha, x[j] / denom);
        }
      }
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (passive[j]) x[j] += alpha * (z[j] - x[j]);
      }
      for (std::size_t j : idx) {
        if (x[j] <= kTolerance) {
          x[j] = 0.0;
          passive[j] = false;
        }
      }
    }
  }

  LeastSquaresResult result;
  result.x = x;
  result.residual_norm = norm2(residual(x));
  return result;
}

}  // namespace krak::linalg
