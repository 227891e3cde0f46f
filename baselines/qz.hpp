// Generalized eigenvalues of a matrix pencil (E, A): the values lambda
// (possibly infinite) with det(A - lambda E) = 0. The Weierstrass
// baseline's own screen, independent of the library's structural one
// (ds::finiteSpectrum reads the finite part off the Wong record).
//
// Implementation note: computed by shift-and-invert onto an ordinary real
// Schur problem, M = (A - sigma E)^{-1} E with a pencil-adapted shift sigma,
// mapping eigenvalues mu of M to lambda = sigma + 1/mu (mu = 0 <-> lambda =
// infinity). This is an O(n^3) substitution for a full QZ iteration; the
// shift is retried over a deterministic candidate list so a singular
// (A - sigma E) is never used. The relative cut `infTol` on |mu| decides
// which eigenvalues are infinite, so a pole faster than 1/infTol times
// the slowest one is counted as infinite.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Result of a generalized eigenvalue computation on a regular pencil.
struct GeneralizedEigenvalues {
  /// Finite eigenvalues of (E, A): lambda with det(A - lambda E) = 0.
  std::vector<std::complex<double>> finite;
  /// Algebraic count of infinite eigenvalues (nondynamic + impulsive).
  std::size_t infiniteCount = 0;
  /// Shift sigma actually used (diagnostic).
  double shiftUsed = 0.0;
};

/// Compute the generalized eigenvalues of the pencil (E, A), i.e. the roots
/// of det(A - lambda E) including multiplicity, with infinite eigenvalues
/// counted separately. `infTol` is the relative threshold below which an
/// eigenvalue mu of the shifted-inverse operator is declared zero (lambda =
/// infinity). Throws std::runtime_error if the pencil appears singular
/// (det(A - s E) == 0 for all trial shifts).
GeneralizedEigenvalues generalizedEigenvalues(const Matrix& e, const Matrix& a,
                                              double infTol = 1e-6);

}  // namespace shhpass::linalg
