#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace shhpass::linalg {

LU::LU(const Matrix& a) : lu_(a), p_(a.rows()) {
  if (!a.isSquare()) throw std::invalid_argument("LU: matrix must be square");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) p_[i] = i;
  minPivot_ = std::numeric_limits<double>::infinity();
  maxPivot_ = 0.0;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: choose the largest entry in column k at/below row k.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(p_[k], p_[piv]);
    }
    const double pivot = lu_(k, k);
    minPivot_ = std::min(minPivot_, std::abs(pivot));
    maxPivot_ = std::max(maxPivot_, std::abs(pivot));
    if (pivot == 0.0) continue;  // singular; leave zero column
    for (std::size_t i = k + 1; i < n; ++i) {
      lu_(i, k) /= pivot;
      const double lik = lu_(i, k);
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= lik * lu_(k, j);
    }
  }
  if (n == 0) minPivot_ = 0.0;
}

bool solveSmallDense(double* a, double* b, std::size_t n, double tol) {
  double minPivot = std::numeric_limits<double>::infinity();
  double maxPivot = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(a[i * n + k]) > std::abs(a[piv * n + k])) piv = i;
    if (piv != k) {
      for (std::size_t j = k; j < n; ++j)
        std::swap(a[k * n + j], a[piv * n + j]);
      std::swap(b[k], b[piv]);
    }
    const double akk = a[k * n + k];
    minPivot = std::min(minPivot, std::abs(akk));
    maxPivot = std::max(maxPivot, std::abs(akk));
    if (akk == 0.0) continue;  // zero pivot: flagged singular below
    for (std::size_t i = k + 1; i < n; ++i) {
      const double l = a[i * n + k] / akk;
      if (l == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) a[i * n + j] -= l * a[k * n + j];
      b[i] -= l * b[k];
    }
  }
  if (minPivot <= tol * (maxPivot > 0.0 ? maxPivot : 1.0)) return false;
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i * n + j] * b[j];
    b[i] = acc / a[i * n + i];
  }
  return true;
}

bool LU::isSingular(double tol) const {
  return minPivot_ <= tol * (maxPivot_ > 0 ? maxPivot_ : 1.0);
}

Matrix LU::solve(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) throw std::invalid_argument("LU::solve: shape mismatch");
  if (isSingular()) throw std::runtime_error("LU::solve: singular matrix");
  Matrix x(n, b.cols());
  // Apply permutation.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) x(i, j) = b(p_[i], j);
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t k = 0; k < i; ++k) {
      const double l = lu_(i, k);
      if (l == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) x(i, j) -= l * x(k, j);
    }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    const double u = lu_(ii, ii);
    for (std::size_t j = 0; j < b.cols(); ++j) x(ii, j) /= u;
    for (std::size_t k = 0; k < ii; ++k) {
      const double v = lu_(k, ii);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) x(k, j) -= v * x(ii, j);
    }
  }
  return x;
}

Matrix LU::solveTransposed(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n)
    throw std::invalid_argument("LU::solveTransposed: shape mismatch");
  if (isSingular())
    throw std::runtime_error("LU::solveTransposed: singular matrix");
  // A^T = (P^T L U)^T = U^T L^T P. Solve U^T y = b, L^T z = y, x = P^T z.
  Matrix y = b;
  // Forward substitution with U^T (lower triangular with diag of U).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      const double u = lu_(k, i);
      if (u == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) y(i, j) -= u * y(k, j);
    }
    const double d = lu_(i, i);
    for (std::size_t j = 0; j < b.cols(); ++j) y(i, j) /= d;
  }
  // Back substitution with L^T (unit upper triangular).
  for (std::size_t ii = n; ii-- > 0;)
    for (std::size_t k = ii + 1; k < n; ++k) {
      const double l = lu_(k, ii);
      if (l == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) y(ii, j) -= l * y(k, j);
    }
  // Undo permutation: x(p_[i]) = y(i).
  Matrix x(n, b.cols());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) x(p_[i], j) = y(i, j);
  return x;
}

Matrix LU::inverse() const { return solve(Matrix::identity(lu_.rows())); }

}  // namespace shhpass::linalg
