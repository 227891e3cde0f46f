#include "core/proper_part.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/svd.hpp"
#include "shh/isotropic_arnoldi.hpp"
#include "shh/stable_subspace.hpp"
#include "shh/symplectic.hpp"

namespace shhpass::core {

using linalg::Matrix;

namespace {

/// (Eq. 21) Normalize E3 to the identity: sets out.a4 = Z_L A3 Z_R (the
/// Hamiltonian A4) and the normalizer certificate (condNormalizer,
/// rankReport), and returns C4 = C3 Z_R. The factors and transforms are
/// locals, so they are freed before the decoupling allocates its own.
Matrix normalizeE3(const shh::ShhRealization& s3, double rankTol,
                   ProperPartResult& out) {
  const std::size_t n2 = s3.order();
  const std::size_t np = n2 / 2;

  // Block-triangularize E3 by the isotropic Arnoldi process and
  // normalize to the identity with the structured K_L K_R factorization.
  shh::SkewHamiltonianTriangularization tri =
      shh::skewHamiltonianBlockTriangularize(s3.e);
  Matrix ebar = tri.ebar();
  Matrix theta = tri.theta();
  linalg::LU elu(ebar);
  if (elu.isSingular(1e-12))
    throw std::runtime_error(
        "extractProperPart: E3 numerically singular (Ebar not invertible)");
  Matrix x = 0.5 * elu.solve(theta);  // X = Ebar^{-1} Theta / 2

  // Z_L = K_L^{-1} Z^T with K_L = [Ebar -X^T; 0 I]:
  //   K_L^{-1} = [Ebar^{-1}  Ebar^{-1} X^T; 0  I].
  Matrix zt = tri.z.transposed();
  Matrix ztTop = zt.block(0, 0, np, n2);
  Matrix ztBot = zt.block(np, 0, np, n2);
  Matrix zl(n2, n2);
  zl.setBlock(0, 0, elu.solve(ztTop + x.transposed() * ztBot));
  zl.setBlock(np, 0, ztBot);

  // Z_R = Z K_R^{-1} with K_R = [I X; 0 Ebar^T]:
  //   K_R^{-1} = [I  -X Ebar^{-T}; 0  Ebar^{-T}].
  Matrix zTop = tri.z.block(0, 0, n2, np);
  Matrix zBot = tri.z.block(0, np, n2, np);
  Matrix ebarInvT = elu.solveTransposed(Matrix::identity(np));
  Matrix zr(n2, n2);
  zr.setBlock(0, 0, zTop);
  zr.setBlock(0, np, (zBot - zTop * x) * ebarInvT);

  // Normalizer conditioning / rank certificate, on the factor the
  // normalization actually inverts: every solve above goes through
  // LU(Ebar), so sigma(Ebar) is the spectrum that bounds the error of
  // Z_L and Z_R (the historical check ran a full SVD of the whole
  // 2np x 2np block-triangular K for the same certificate, at 4x the
  // cost and with the bases thrown away). singularValues() skips the
  // U/V accumulation entirely.
  const std::vector<double> esv = linalg::singularValues(ebar);

  const double esmin = esv.empty() ? 0.0 : esv.back();
  out.condNormalizer =
      esv.empty() ? 1.0
                  : (esmin == 0.0 ? std::numeric_limits<double>::infinity()
                                  : esv.front() / esmin);
  linalg::rankFromSingularValues(esv, ebar.rows(), ebar.cols(), rankTol,
                                 &out.rankReport);

  // A4 = Z_L A3 Z_R is Hamiltonian; C4 = C3 Z_R; B4 = J C4^T automatically.
  out.a4 = zl * s3.a * zr;
  return s3.c * zr;
}

}  // namespace

ProperPartResult extractProperPart(const shh::ShhRealization& s3,
                                   double imagTol, double rankTol) {
  ProperPartResult out;
  const std::size_t n2 = s3.order();
  const std::size_t m = s3.ports();
  if (n2 == 0) {
    // Purely static Phi: proper part is just the feedthrough.
    out.ok = true;
    out.lambda = Matrix();
    out.b1 = Matrix(0, m);
    out.c1 = Matrix(m, 0);
    out.dHalf = 0.5 * s3.d;
    return out;
  }
  const std::size_t np = n2 / 2;

  const Matrix c4 = normalizeE3(s3, rankTol, out);

  // (Eqs. 22-23) Split the Hamiltonian spectrum and decouple.
  shh::HamiltonianDecoupling dec = shh::decoupleHamiltonian(out.a4, imagTol);
  out.reorder = dec.reorder;
  out.schur = dec.schur;

  if (!dec.ok) return out;  // imaginary-axis eigenvalues: cannot split

  // C5 = C4 Z2 = (C4 Z1) [I Y; 0 I] = [C41, C41 Y + C42] with
  // [C41, C42] = C4 Z1.
  const Matrix c4z1 = c4 * dec.z1;
  Matrix c51 = c4z1.block(0, 0, m, np);
  Matrix c52 = c4z1.block(0, np, m, np);
  linalg::gemm(1.0, c51, false, dec.y, false, 1.0, c52);
  // B5 = J C5^T = [C52^T; -C51^T]: the stable part reads B1 = C52^T.
  out.lambda = dec.lambda;
  out.c1 = c51;
  out.b1 = c52.transposed();
  out.dHalf = 0.5 * s3.d;
  out.ok = true;
  return out;
}

}  // namespace shhpass::core
