// Symplectic structure helpers: the 2n x 2n unit J = [0 I; -I 0],
// orthogonal-symplectic predicates, and the construction of an orthogonal
// symplectic basis from a Lagrangian invariant subspace (Eq. 22-23).
#pragma once

#include "linalg/matrix.hpp"

namespace shhpass::shh {

/// y = J x for the canonical J of half-size n (x has 2n rows). Cheap
/// row permutation + sign flips, no matrix product.
linalg::Matrix applyJ(const linalg::Matrix& x);

/// True iff S^T S = I and S^T J S = J within tol (S square, even size).
bool isOrthogonalSymplectic(const linalg::Matrix& s, double tol = 1e-10);

/// True iff S^T J S = J within tol (symplectic, not necessarily orthogonal).
bool isSymplectic(const linalg::Matrix& s, double tol = 1e-10);

/// Given an orthonormal basis [X1; X2] (2n x n) of a Lagrangian subspace
/// (X1^T X2 symmetric), return the orthogonal symplectic completion
/// Z1 = [X1 -X2; X2 X1]. Throws std::invalid_argument on shape mismatch.
linalg::Matrix lagrangianCompletion(const linalg::Matrix& x1,
                                    const linalg::Matrix& x2);

}  // namespace shhpass::shh
