// Stage (22)-(23) of the paper: block-diagonalize a Hamiltonian matrix
// with no imaginary-axis eigenvalues into diag(Lambda, -Lambda^T). The
// stable invariant subspace [X1; X2] comes from an ordered real Schur
// form; an orthogonal symplectic Lagrangian completion of it is followed
// by a symplectic (Lyapunov-based) decoupling.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/schur_multishift.hpp"
#include "linalg/schur_reorder.hpp"

namespace shhpass::shh {

/// Result of the Hamiltonian stable/antistable decoupling. The decoupling
/// transform is Z2 = Z1 [I Y; 0 I], with inverse [I -Y; 0 I] Z1^T, and
/// Z2^{-1} H Z2 = diag(lambda, -lambda^T). Neither Z2 nor its inverse is
/// formed: a caller that needs C Z2 computes (C Z1) [I Y; 0 I], which
/// costs O(m np^2) instead of two (2np)^3 products.
struct HamiltonianDecoupling {
  bool ok = false;        ///< False if the spectrum touches the imaginary
                          ///< axis (no clean stable/antistable split).
  linalg::Matrix lambda;  ///< np x np stable block, the leading block of
                          ///< Z1^T H Z1, exactly quasi-triangular with the
                          ///< block pattern of the reordered Schur factor.
  linalg::Matrix z1;      ///< 2np x 2np orthogonal symplectic completion
                          ///< [X1 -X2; X2 X1] of the stable Schur basis
                          ///< [X1; X2] (H [X1; X2] = [X1; X2] lambda):
                          ///< Z1^T H Z1 = [lambda Ahat; 0 -lambda^T].
  linalg::Matrix y;       ///< Lyapunov solution of
                          ///< lambda Y + Y lambda^T + Ahat = 0.
};

/// Decouple a Hamiltonian matrix H (2np x 2np; throws
/// std::invalid_argument on an odd or non-square H). The Eq.-(22) split is
/// one real Schur form of H, the imaginary-axis cut
/// (control::anyEigenvalueOnImaginaryAxis at `imagTol`) on its
/// eigenvalues, and one reordering of the stable eigenvalues to the top;
/// the split fails (ok = false) on an axis eigenvalue or an uneven split.
/// Only the top np rows of the congruence Z1^T H Z1 are formed (they hold
/// lambda and Ahat). The Schur factorization's health is written to
/// `schur` and the reordering's to `reorder`, when non-null.
HamiltonianDecoupling decoupleHamiltonian(
    const linalg::Matrix& h, double imagTol = 1e-8,
    linalg::SchurReport* schur = nullptr,
    linalg::ReorderReport* reorder = nullptr);

}  // namespace shhpass::shh
