// Householder QR factorization and the orthonormal-completion helper used
// by the deflation steps of the SHH passivity pipeline. Rank decisions are
// not made here: they go through the shared SVD policy (svd.hpp).
//
// The factorization is blocked: panels of kQrBlock columns are factored
// with the classical rank-1 kernel, then the panel's reflectors are
// aggregated into a compact-WY factor (householder.hpp) and the trailing
// columns are updated with three gemm calls (BLAS-3). applyQ / applyQt use
// the same stored per-panel T factors. Small problems (rows below
// kQrWyMinRows) take the unblocked path, where the rank-1 kernel is both
// faster and bit-identical to the pre-blocking implementation.
//
// Accuracy: blocked and unblocked paths are both backward stable and
// agree to O(n * eps * ||A||) (different summation order, not bitwise);
// equivalence at 1e-13 (scaled) is enforced by tests/test_blas_blocked.cpp.
// Threading: inherits gemm's contract (blas.hpp) — bit-deterministic for
// every setGemmThreads() setting.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Panel width of the blocked QR factorization.
inline constexpr std::size_t kQrBlock = 32;
/// Smallest row count for which the factorization blocks; below it the
/// factorization and applications are bit-identical to the historical
/// unblocked implementation.
inline constexpr std::size_t kQrWyMinRows = 48;

/// A = Q R with Householder reflectors. Works for any m x n shape.
class QR {
 public:
  explicit QR(const Matrix& a);

  /// Thin orthogonal factor, m x min(m,n).
  Matrix thinQ() const;
  /// Full orthogonal factor, m x m.
  Matrix fullQ() const;
  /// Upper-trapezoidal R, min(m,n) x n.
  Matrix r() const;

  /// Apply Q^T to a matrix without forming Q (m-row input).
  Matrix applyQt(const Matrix& b) const;
  /// Apply Q to a matrix without forming Q (m-row input).
  Matrix applyQ(const Matrix& b) const;

 private:
  void factorUnblocked();
  void factorBlocked();
  /// Generate the Householder reflector for column k (below row k) in
  /// place: v stored below the diagonal (unit leading entry implicit),
  /// R entry on the diagonal, scalar in tau_[k]. Shared verbatim by both
  /// factorization paths so their reflectors are bit-identical.
  void generateReflector(std::size_t k);
  /// Materialize panel [k0, k0+kb) reflectors as a dense V block
  /// (householder.hpp convention: explicit unit diagonal, zeros above).
  Matrix panelV(std::size_t k0, std::size_t kb) const;

  Matrix qr_;                   // reflectors below diagonal, R at/above
  std::vector<double> tau_;     // reflector scalars
  bool blocked_ = false;        // WY path enabled (large problems)
  std::vector<Matrix> tFactors_;  // one compact-WY T per panel
};

/// Orthonormal completion: given m x k V with orthonormal columns, returns
/// m x (m-k) W such that [V W] is orthogonal.
Matrix orthonormalComplement(const Matrix& v);

}  // namespace shhpass::linalg
