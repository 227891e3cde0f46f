// Stage (22)-(23) of the paper: block-diagonalize a Hamiltonian matrix
// with no imaginary-axis eigenvalues into diag(Lambda, -Lambda^T) via an
// orthogonal symplectic Lagrangian completion followed by a symplectic
// (Lyapunov-based) decoupling.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/schur_multishift.hpp"
#include "linalg/schur_reorder.hpp"

namespace shhpass::shh {

/// Result of the Hamiltonian stable/antistable decoupling.
struct HamiltonianDecoupling {
  bool ok = false;        ///< False if the spectrum touches the imaginary
                          ///< axis (no clean stable/antistable split).
  linalg::Matrix lambda;  ///< np x np stable block (quasi-triangular).
  linalg::Matrix z2;      ///< Symplectic transform: z2inv * H * z2 =
                          ///< diag(lambda, -lambda^T).
  linalg::Matrix z2inv;   ///< Explicit inverse of z2 ([I -Y; 0 I] Z1^T).
  linalg::Matrix y;       ///< Lyapunov solution used in the decoupling.
  /// Reordering health of the underlying Eq.-(22) Schur split.
  linalg::ReorderReport reorder;
  /// Health of the real Schur factorization behind that split.
  linalg::SchurReport schur;
};

/// Decouple a Hamiltonian matrix H (2np x 2np). `imagTol` is passed to the
/// stable-invariant-subspace computation.
HamiltonianDecoupling decoupleHamiltonian(const linalg::Matrix& h,
                                          double imagTol = 1e-8);

}  // namespace shhpass::shh
