#include "core/nondynamic.hpp"

#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/staircase.hpp"
#include "shh/symplectic.hpp"

namespace shhpass::core {

using linalg::Matrix;

namespace {

// Tail of the removal: given the split bases (U = [R K] orthogonal,
// U^T E1 U = diag(E11, 0)), run the A22 impulse-freeness certificate, the
// Schur-complement strong equivalence (Eq. 19), and the -J restoration
// (Eq. 20). `a22Rank` must already be the recorded rank decision on A22
// when removed > 0 (0 otherwise).
void finishRemoval(NondynamicRemovalResult& out,
                   const shh::SkewSymRealization& s1, const Matrix& e11,
                   const Matrix& a11, const Matrix& a12, const Matrix& a22,
                   const Matrix& c1, const Matrix& c2, std::size_t a22Rank) {
  if (out.removed > 0 && a22Rank < out.removed) {
    out.impulseFree = false;
    return;
  }
  out.impulseFree = true;

  // Schur-complement strong equivalence (Eq. 19):
  //   A2 = A11 - A12 A22^{-1} A12^T   (symmetric)
  //   C2' = C1 - C2 A22^{-1} A12^T
  //   D2 = D + C2 A22^{-1} C2^T       (input map is -C^T)
  Matrix a2 = a11, c2p = c1, d2 = s1.d;
  if (out.removed > 0) {
    linalg::LU lu(a22);
    Matrix a22InvA21 = lu.solve(a12.transposed());  // A22^{-1} A12^T
    Matrix a22InvC2t = lu.solve(c2.transposed());   // A22^{-1} C2^T
    a2 = a11 - a12 * a22InvA21;
    c2p = c1 - c2 * a22InvA21;
    d2 = s1.d + c2 * a22InvC2t;
    linalg::symmetrize(a2);
    linalg::symmetrize(d2);
  }

  // Stage 3 (Eq. 20): left-multiply the pencil by -J to restore the SHH
  // structure. E3 = -J E11 is skew-Hamiltonian because J E3 = E11 is skew;
  // A3 = -J A2 is Hamiltonian because J A3 = A2 is symmetric; and the input
  // map -C^T becomes -J(-C^T) = J C3^T, the structured B of ShhRealization.
  const std::size_t r = e11.rows();
  if (r % 2 != 0)
    throw std::logic_error("removeNondynamicModes: odd rank of skew E1");
  Matrix j = Matrix::symplecticJ(r / 2);
  out.shh.e = -1.0 * (j * e11);
  out.shh.a = -1.0 * (j * a2);
  out.shh.c = c2p;
  out.shh.d = d2;
}

}  // namespace

NondynamicRemovalResult removeNondynamicModes(
    const shh::SkewSymRealization& s1, double rankTol) {
  NondynamicRemovalResult out;
  const std::size_t n = s1.order();
  linalg::StaircaseReport& sr = out.staircase;

  // Range/kernel split of the exactly-skew E1 through the
  // skew-tridiagonal compression kernel (Auto detects the structure and
  // falls back to a certified full SVD if a caller hands a non-skew E1).
  linalg::CompressionOptions opts;
  opts.rankTol = rankTol;
  opts.wantRange = true;
  opts.wantNullspace = true;  // for skew E1, Ker(E1) == Ker(E1^T)
  linalg::Compression ce = linalg::compress(s1.e, opts, &out.rankReport, &sr);
  ++sr.chainLength;
  const std::size_t r = ce.rank;
  out.removed = n - r;

  if (out.removed == 0) {
    // Chain truncation: E1 numerically nonsingular means there is nothing
    // to eliminate — stay in identity coordinates (U = I is as valid an
    // orthogonal split as the computed basis) and skip every gemm.
    ++sr.truncatedSteps;
    finishRemoval(out, s1, s1.e, s1.a, Matrix(n, 0), Matrix(0, 0), s1.c,
                  Matrix(s1.c.rows(), 0), 0);
    return out;
  }

  const Matrix& rBasis = ce.range;
  const Matrix& kBasis = ce.nullspace;

  Matrix e11 = linalg::multiply(linalg::atb(rBasis, s1.e), false, rBasis,
                                false);
  linalg::skewSymmetrize(e11);
  // One product A1 * [R K] feeds all three A blocks.
  Matrix u(n, n);
  u.setBlock(0, 0, rBasis);
  u.setBlock(0, r, kBasis);
  Matrix au = s1.a * u;
  Matrix uau = linalg::atb(u, au);
  Matrix a11 = uau.block(0, 0, r, r);
  Matrix a12 = uau.block(0, r, r, n - r);
  Matrix a22 = uau.block(r, r, n - r, n - r);
  linalg::symmetrize(a11);
  linalg::symmetrize(a22);
  Matrix cu = s1.c * u;
  Matrix c1 = cu.block(0, 0, s1.c.rows(), r);
  Matrix c2 = cu.block(0, r, s1.c.rows(), n - r);

  // Impulse-freeness certificate: rank(A22) == removed, through the same
  // compression entry point so the decision and kernel mix are recorded.
  linalg::CompressionOptions a22Opts;
  a22Opts.rankTol = rankTol;
  linalg::Compression ca22 =
      linalg::compress(a22, a22Opts, &out.rankReport, &sr);
  ++sr.chainLength;

  finishRemoval(out, s1, e11, a11, a12, a22, c1, c2, ca22.rank);
  return out;
}

}  // namespace shhpass::core
