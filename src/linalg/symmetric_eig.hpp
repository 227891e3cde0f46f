// Symmetric eigenvalue decomposition A = V diag(w) V^T via Householder
// tridiagonalization followed by the implicit-shift QL iteration.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Eigen-decomposition of a real symmetric matrix.
///
/// Eigenvalues are returned sorted ascending; eigenvectors (when requested)
/// are the matching columns of `eigenvectors()` and form an orthonormal set.
class SymmetricEig {
 public:
  /// Decompose `a` (must be square; only the lower triangle is referenced
  /// after an internal symmetrization). Set wantVectors=false to skip the
  /// accumulation of V for a pure eigenvalue query.
  explicit SymmetricEig(const Matrix& a, bool wantVectors = true);

  const std::vector<double>& eigenvalues() const { return w_; }
  const Matrix& eigenvectors() const { return v_; }

 private:
  std::vector<double> w_;
  Matrix v_;
};

/// lambda_min of the Hermitian matrix G + G^* for a square complex G given
/// as re + j im: the passivity probe lambda_min(G(jw) + G(jw)^*). Its real
/// part S = re + re^T is symmetric and its imaginary part K = im - im^T
/// skew; the real symmetric embedding [[S, -K], [K, S]] has the spectrum
/// of G + G^* with every eigenvalue doubled.
double hermitianPartMinEigenvalue(const Matrix& re, const Matrix& im);

}  // namespace shhpass::linalg
