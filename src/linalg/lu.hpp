// LU factorization with partial pivoting and dense linear solves.
#pragma once

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Solve the tiny dense system A x = b in place on caller storage (a is
/// n x n row-major and is destroyed; the solution overwrites b), with
/// partial pivoting. Returns false — without solving — when the system is
/// numerically singular under the LU::isSingular criterion
/// (min pivot <= tol * max pivot). An allocation-free fast path for the
/// Kronecker systems (n <= 4) that the Schur-reorder swap rehearsals and
/// the quasi-triangular Sylvester back-substitution solve tens of
/// thousands of times per reordering.
bool solveSmallDense(double* a, double* b, std::size_t n, double tol);

/// PA = LU factorization with partial (row) pivoting.
class LU {
 public:
  /// Factor a square matrix. Singular (to working precision) matrices are
  /// detected lazily: `isSingular()` reports a zero pivot; `solve` throws.
  explicit LU(const Matrix& a);

  /// True if a pivot was exactly zero or below `tol * maxAbs`.
  bool isSingular(double tol = 0) const;

  /// Solve A X = B (B may have multiple right-hand sides).
  Matrix solve(const Matrix& b) const;

  /// Solve A^T X = B.
  Matrix solveTransposed(const Matrix& b) const;

  /// A^{-1} (throws if singular).
  Matrix inverse() const;

 private:
  Matrix lu_;                    // packed L (unit lower) and U
  std::vector<std::size_t> p_;   // row permutation
  double minPivot_ = 0.0;
  double maxPivot_ = 0.0;
};

}  // namespace shhpass::linalg
