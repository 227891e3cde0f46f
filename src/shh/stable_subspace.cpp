#include "shh/stable_subspace.hpp"

#include "control/hamiltonian.hpp"
#include "control/lyapunov.hpp"
#include "linalg/blas.hpp"
#include "shh/symplectic.hpp"

namespace shhpass::shh {

using linalg::Matrix;

HamiltonianDecoupling decoupleHamiltonian(const Matrix& h, double imagTol) {
  HamiltonianDecoupling out;
  control::StableSubspace ss = control::stableInvariantSubspace(h, imagTol);
  out.reorder = ss.reorder;
  out.schur = ss.schur;
  if (!ss.ok) return out;
  const std::size_t np = ss.x1.rows();
  if (np == 0) {
    out.ok = true;
    return out;
  }
  // Z1 = [X1 -X2; X2 X1] is orthogonal symplectic because [X1; X2] is an
  // orthonormal Lagrangian basis (X1^T X2 symmetric, see the paper's
  // remark after Eq. 22). Then Z1^T H Z1 = [Lambda Ahat; 0 -Lambda^T],
  // and only its top np rows are read: [Lambda Ahat] = ([X1; X2]^T H) Z1,
  // two np x 2np x 2np gemms.
  out.z1 = lagrangianCompletion(ss.x1, ss.x2);
  Matrix ahat;
  {
    // Scoped so the np x 2np congruence rows are freed before the
    // Lyapunov solve.
    const Matrix basis = out.z1.block(0, 0, 2 * np, np);
    const Matrix top =
        linalg::multiply(linalg::atb(basis, h), false, out.z1, false);
    out.lambda = top.block(0, 0, np, np);
    // In exact arithmetic this block IS the reordered Schur factor
    // ss.lambda; the congruence product only adds roundoff below its
    // quasi-diagonal. Inherit the exact sparsity pattern so downstream
    // block logic — the Lyapunov solver's quasi-triangular fast path, the
    // PR test's block scans — sees a true quasi-triangular matrix.
    for (std::size_t i = 0; i < np; ++i)
      for (std::size_t jj = 0; jj + 1 < i; ++jj) out.lambda(i, jj) = 0.0;
    for (std::size_t i = 0; i + 1 < np; ++i)
      if (ss.lambda(i + 1, i) == 0.0) out.lambda(i + 1, i) = 0.0;
    ahat = top.block(0, np, np, np);
  }
  // Decouple: Lambda Y + Y Lambda^T + Ahat = 0; Z2 = Z1 [I Y; 0 I].
  out.y = control::solveLyapunov(out.lambda, ahat);
  out.ok = true;
  return out;
}

}  // namespace shhpass::shh
