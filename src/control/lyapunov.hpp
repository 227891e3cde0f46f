// Continuous-time Lyapunov equation A Y + Y A^T + Q = 0, used by the
// proper-part extraction step (Eq. 23 of the paper) to block-diagonalize
// the Hamiltonian matrix A_phi4.
#pragma once

#include "linalg/matrix.hpp"

namespace shhpass::control {

/// Solve A Y + Y A^T + Q = 0 for Y. Requires spec(A) and spec(-A^T)
/// disjoint (e.g. A Hurwitz). If Q is symmetric the solution is symmetric;
/// this implementation symmetrizes the result when Q is symmetric to purge
/// round-off.
///
/// A quasi-upper-triangular A (a real Schur factor, e.g. the Eq.-(23)
/// stable block Lambda), or the transpose of one, goes straight to the
/// blocked quasi-triangular Sylvester kernel (sylvester.hpp), whose
/// right-hand-side updates are gemm calls; any other A takes the general
/// Bartels-Stewart path. Results are bit-identical at every gemm thread
/// count. Traced as the `lyapunov` kernel span (n >= 32).
linalg::Matrix solveLyapunov(const linalg::Matrix& a, const linalg::Matrix& q);

}  // namespace shhpass::control
