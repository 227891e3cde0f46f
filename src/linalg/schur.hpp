// Real Schur decomposition A = Q T Q^T with T quasi-upper-triangular
// (1x1 blocks for real eigenvalues, standardized 2x2 blocks for complex
// conjugate pairs).
//
// Two QR iterations share one driver (Hessenberg reduction, iteration,
// standardizing cleanup) behind the public entry points:
//
//   * francisSchurWindow (schur_multishift.hpp) — the EISPACK / LAPACK
//     dlahqr lineage Francis double-shift iteration, run on the
//     whole matrix. schurUnblocked is this path at every order: the
//     reference oracle, and the path realSchur takes below the
//     crossover, where its lower constant wins.
//   * the multishift QR subsystem with aggressive early deflation
//     (schur_multishift.hpp, aed.hpp; LAPACK dlaqr0/dlaqr2/dlaqr5
//     lineage), which converts the bulk of the QR-iteration work into
//     blocked gemm() calls.
//
// realSchur() dispatches on kSchurCrossover (schur_multishift.hpp);
// below it the result is BIT-IDENTICAL to schurUnblocked (seeded
// downstream tests rely on that). Above it the two paths produce equally
// valid decompositions that agree on eigenvalues to backward-stable
// roundoff — equivalence is enforced by
// tests/test_schur_multishift_random.cpp.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/schur_multishift.hpp"

namespace shhpass::linalg {

/// Result of a real Schur decomposition.
struct RealSchurResult {
  Matrix t;  ///< Quasi-upper-triangular Schur form.
  Matrix q;  ///< Orthogonal, A = q * t * q^T.
  /// Eigenvalues in diagonal order of t.
  std::vector<std::complex<double>> eigenvalues;
  /// Health record of the QR iteration (which path ran, sweep / AED /
  /// shift / iteration counters — schur_multishift.hpp).
  SchurReport report;
};

/// Compute the real Schur form of a square matrix. Dispatches between
/// the multishift (large) and the unblocked (small) implementation; see
/// the header comment. Throws SchurConvergenceError if the QR iteration
/// fails to converge (mapped to SCHUR_NO_CONVERGENCE by the public API).
RealSchurResult realSchur(const Matrix& a);

/// The unblocked reference implementation: Hessenberg reduction plus
/// francisSchurWindow over the whole matrix, at every order. Exposed for
/// the multishift-vs-reference equivalence tests and kernel benchmarks;
/// production code should call realSchur().
RealSchurResult schurUnblocked(const Matrix& a);

/// Eigenvalues only. Runs realSchur's Hessenberg reduction and QR
/// iteration (the same dispatch on kSchurCrossover) WITHOUT forming the
/// orthogonal factor (the Q-sized accumulation loops and gemm flushes are
/// skipped outright). The T iterates never read Q, so the values are
/// bitwise realSchur's at every order, at a fraction of the cost.
std::vector<std::complex<double>> eigenvalues(const Matrix& a);

/// Extract the eigenvalues from an already quasi-triangular matrix
/// (1x1 and 2x2 diagonal blocks), without further factorization.
std::vector<std::complex<double>> quasiTriangularEigenvalues(const Matrix& t);

/// Repair an almost-quasi-triangular matrix so its diagonal block
/// structure is well defined: whenever two consecutive subdiagonal entries
/// are both nonzero (adjacent 2x2 blocks would overlap), zero the smaller
/// one. The QR iterations now zero the subdiagonals they judge negligible
/// at deflation time, so this is a belt-and-braces pass: it throws if the
/// overlap it would have to remove is NOT negligible (input not a Schur
/// form). Block-scanning code (reordering, eigenvalue extraction)
/// requires the invariant it certifies. Returns the number of entries it
/// zeroed — 0 for any matrix the fixed QR iterations produce (the count
/// a realSchur run needed is recorded in SchurReport::structureRepairs,
/// and pinned to zero by the regression tests).
std::size_t repairQuasiTriangularStructure(Matrix& t);

}  // namespace shhpass::linalg
