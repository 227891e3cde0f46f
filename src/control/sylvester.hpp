// Sylvester equation solver A X + X B = C via Bartels-Stewart
// (real Schur of both coefficients + back-substitution).
//
// The back-substitution is one blocked kernel for every orientation,
// LAPACK dtrsyl-style (op(A) X + X op(B) = C with transpose flags), in the
// spirit of the blocked solvers of I. Jonsson and B. Kågström (RECSY, ACM
// TOMS 28(4), 2002): the unknown is cut into column panels and row blocks
// of about kSylvesterPanel that never split a 2x2 diagonal block. The
// right-hand-side update of each column panel by the panels already solved
// is one gemm, and so is the update of each row block within a panel; only
// the diagonal tiles are solved element-block by element-block, with the
// 1x1 and 2x2 block solves on the stack. The historical one-block-at-a-time
// back-substitutions survive as test oracles (tests/decoupling_oracle.hpp).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace shhpass::control {

/// Panel width (columns) and row-block height of the blocked
/// quasi-triangular Sylvester kernel; a 2x2 block straddling a cut moves
/// the cut one further.
inline constexpr std::size_t kSylvesterPanel = 64;

/// Solve A X + X B = C for X (A n x n, B m x m, C n x m).
/// Requires spec(A) and spec(-B) disjoint; throws std::runtime_error if the
/// equation is (numerically) singular.
linalg::Matrix solveSylvester(const linalg::Matrix& a, const linalg::Matrix& b,
                              const linalg::Matrix& c);

/// Solve op(A) X + X op(B) = C where A (m x m) and B (n x n) are already
/// quasi-upper-triangular (real Schur forms) and op(M) is M, or M^T when
/// the matching flag is set. The three orientations the library needs:
///   * (S, false, T, false): S Y + Y T = F — the general Bartels-Stewart
///     solve;
///   * (S, false, S, true): S Y + Y S^T = F — Lyapunov with a Schur-factor
///     coefficient, e.g. the reordered stable block of the Eq.-(23)
///     Hamiltonian decoupling;
///   * (S, true, S, false): S^T Y + Y S = F — Lyapunov with the transpose
///     of a Schur factor, e.g. the observability Gramian of the
///     balanced-truncation reduction.
/// Throws std::runtime_error when a diagonal block pair makes the equation
/// numerically singular, std::invalid_argument on a shape mismatch.
linalg::Matrix solveSylvesterQuasiTriangular(const linalg::Matrix& a,
                                             bool transA,
                                             const linalg::Matrix& b,
                                             bool transB,
                                             const linalg::Matrix& c);

/// True iff t is quasi-upper-triangular with a well-defined block
/// partition: zero below the first subdiagonal and no two consecutive
/// nonzero subdiagonal entries.
bool isQuasiTriangular(const linalg::Matrix& t);

}  // namespace shhpass::control
