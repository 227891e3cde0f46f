// Reference implementation of the Eq.-21 E3 normalization for a GENERAL
// nonsingular skew-Hamiltonian E3: the isotropic-Arnoldi
// block-triangularization (Sec. 3.3)
//   Z^T E3 Z = [Ebar Theta; 0 Ebar^T],
// and the structured factorization
//   K = K_L K_R,  K_L = [Ebar -X^T; 0 I],  K_R = [I X; 0 Ebar^T],
//   X = Ebar^{-1} Theta / 2,
// so Z_L = K_L^{-1} Z^T and Z_R = Z K_R^{-1} satisfy Z_L E3 Z_R = I and
// keep A4 = Z_L A3 Z_R Hamiltonian and B4 = J C4^T. This is the library's
// normalization from before removeNondynamicModes handed over E3 in the
// normal form diag(S, S) (where it reduces to a diagonal scaling), kept
// unchanged in arithmetic as the oracle the production path is compared
// against (test_core_stages.cpp). Header-only; not part of the library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "shh/isotropic_arnoldi.hpp"
#include "shh/shh_pencil.hpp"
#include "shh/stable_subspace.hpp"

namespace shhpass::oracle {

using linalg::Matrix;

/// The stable proper half Hp(s) = dHalf + c1 (sI - lambda)^{-1} b1 of Phi.
struct ProperPart {
  bool ok = false;  ///< False if A4 has imaginary-axis eigenvalues.
  Matrix lambda, b1, c1, dHalf;
};

/// Normalize E3 by the isotropic Arnoldi and K_L K_R; returns
/// (A4, C4) = (Z_L A3 Z_R, C3 Z_R). Throws std::runtime_error if Ebar is
/// singular.
inline std::pair<Matrix, Matrix> normalizeByArnoldi(
    const shh::ShhRealization& s3) {
  const std::size_t n2 = s3.order();
  const std::size_t np = n2 / 2;
  shh::SkewHamiltonianTriangularization tri =
      shh::skewHamiltonianBlockTriangularize(s3.e);
  Matrix ebar = tri.ebar();
  Matrix theta = tri.theta();
  linalg::LU elu(ebar);
  if (elu.isSingular(1e-12))
    throw std::runtime_error("oracle: Ebar not invertible");
  Matrix x = 0.5 * elu.solve(theta);  // X = Ebar^{-1} Theta / 2

  // Z_L = K_L^{-1} Z^T with K_L^{-1} = [Ebar^{-1}  Ebar^{-1} X^T; 0  I].
  Matrix zt = tri.z.transposed();
  Matrix ztTop = zt.block(0, 0, np, n2);
  Matrix ztBot = zt.block(np, 0, np, n2);
  Matrix zl(n2, n2);
  zl.setBlock(0, 0, elu.solve(ztTop + x.transposed() * ztBot));
  zl.setBlock(np, 0, ztBot);

  // Z_R = Z K_R^{-1} with K_R^{-1} = [I  -X Ebar^{-T}; 0  Ebar^{-T}].
  Matrix zTop = tri.z.block(0, 0, n2, np);
  Matrix zBot = tri.z.block(0, np, n2, np);
  Matrix ebarInvT = elu.solveTransposed(Matrix::identity(np));
  Matrix zr(n2, n2);
  zr.setBlock(0, 0, zTop);
  zr.setBlock(0, np, (zBot - zTop * x) * ebarInvT);

  return {zl * s3.a * zr, s3.c * zr};
}

/// Stages 4-5 (Eqs. 21-23) with the Arnoldi normalization: the same
/// decoupling and read-out as core::extractProperPart.
inline ProperPart properPartByArnoldi(const shh::ShhRealization& s3,
                                      double imagTol = 1e-8) {
  ProperPart out;
  const std::size_t m = s3.ports();
  const std::size_t np = s3.order() / 2;
  out.dHalf = 0.5 * s3.d;
  const auto [a4, c4] = normalizeByArnoldi(s3);
  shh::HamiltonianDecoupling dec = shh::decoupleHamiltonian(a4, imagTol);
  if (!dec.ok) return out;
  const Matrix c4z1 = c4 * dec.z1;
  Matrix c51 = c4z1.block(0, 0, m, np);
  Matrix c52 = c4z1.block(0, np, m, np);
  linalg::gemm(1.0, c51, false, dec.y, false, 1.0, c52);
  out.lambda = dec.lambda;
  out.c1 = c51;
  out.b1 = c52.transposed();
  out.ok = true;
  return out;
}

}  // namespace shhpass::oracle
