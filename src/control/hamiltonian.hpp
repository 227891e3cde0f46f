// Hamiltonian / skew-Hamiltonian structure predicates and the
// imaginary-axis cut shared by the Eq.-(22) split (shh/stable_subspace)
// and the positive-realness certificate.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace shhpass::control {

/// True iff (J H)^T = J H, i.e. H = [A R; Q -A^T] with R, Q symmetric.
bool isHamiltonian(const linalg::Matrix& h, double tol = 1e-10);

/// True iff (J W)^T = -J W, i.e. W = [A R; Q A^T] with R, Q skew-symmetric.
bool isSkewHamiltonian(const linalg::Matrix& w, double tol = 1e-10);

/// Build the 2n x 2n Hamiltonian matrix [a r; q -a^T] (r, q symmetric n x n).
linalg::Matrix makeHamiltonian(const linalg::Matrix& a, const linalg::Matrix& r,
                               const linalg::Matrix& q);

/// The imaginary-axis cut: true iff one of `eigenvalues` (those of `h`)
/// lies within max(tol * max(1, |lambda|), 1e3 * eps * ||h||_F) of the
/// axis — a per-eigenvalue relative threshold with an eps-level absolute
/// floor tied to the matrix norm (the size of backward error in computed
/// eigenvalues). A norm-proportional *tolerance* would misclassify
/// well-damped eigenvalues of badly scaled systems as imaginary.
bool anyEigenvalueOnImaginaryAxis(
    const std::vector<std::complex<double>>& eigenvalues, double tol,
    const linalg::Matrix& h);

/// True iff the matrix has an eigenvalue within the imaginary-axis cut
/// (used as the core positive-realness certificate).
bool hasImaginaryAxisEigenvalue(const linalg::Matrix& h, double tol = 1e-8);

}  // namespace shhpass::control
