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
    out.z2 = Matrix();
    out.z2inv = Matrix();
    return out;
  }
  // Z1 = [X1 -X2; X2 X1] is orthogonal symplectic because [X1; X2] is an
  // orthonormal Lagrangian basis (X1^T X2 symmetric, see the paper's
  // remark after Eq. 22). Then Z1^T H Z1 = [Lambda Ahat; 0 -Lambda^T].
  // Both (2np)^3 products here ride the blocked BLAS-3 gemm (blas.hpp), as
  // does the Z2 assembly below — this congruence is the dominant dense
  // cost of the decoupling.
  Matrix z1 = lagrangianCompletion(ss.x1, ss.x2);
  Matrix ahat;
  {
    // Scoped so the (2np)^2 congruence is freed before the Lyapunov solve.
    Matrix t1 = linalg::multiply(linalg::atb(z1, h), false, z1, false);
    out.lambda = t1.block(0, 0, np, np);
    // In exact arithmetic this block IS the reordered Schur factor
    // ss.lambda; the congruence product only adds roundoff below its
    // quasi-diagonal (the same roundoff the block extraction already
    // discards in the lower-left quarter of t1). Inherit the exact
    // sparsity pattern so downstream block logic — the Lyapunov solver's
    // quasi-triangular fast path, the PR test's block scans — sees a true
    // quasi-triangular matrix.
    for (std::size_t i = 0; i < np; ++i)
      for (std::size_t jj = 0; jj + 1 < i; ++jj) out.lambda(i, jj) = 0.0;
    for (std::size_t i = 0; i + 1 < np; ++i)
      if (ss.lambda(i + 1, i) == 0.0) out.lambda(i + 1, i) = 0.0;
    ahat = t1.block(0, np, np, np);
  }
  // Decouple: Lambda Y + Y Lambda^T + Ahat = 0; Z2 = Z1 [I Y; 0 I].
  out.y = control::solveLyapunov(out.lambda, ahat);
  {
    Matrix s = Matrix::identity(2 * np);
    s.setBlock(0, np, out.y);
    out.z2 = z1 * s;
  }
  Matrix sInv = Matrix::identity(2 * np);
  sInv.setBlock(0, np, -1.0 * out.y);
  out.z2inv = linalg::multiply(sInv, false, z1, true);
  out.ok = true;
  return out;
}

}  // namespace shhpass::shh
