#include "core/nondynamic.hpp"

#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/staircase.hpp"
#include "shh/symplectic.hpp"

namespace shhpass::core {

using linalg::Matrix;

NondynamicRemovalResult removeNondynamicModes(
    const shh::SkewSymRealization& s1, double rankTol,
    linalg::RankReport* rankReport, linalg::StaircaseReport* stair) {
  NondynamicRemovalResult out;
  const std::size_t n = s1.order();
  linalg::StaircaseReport discarded;
  linalg::StaircaseReport& sr = stair != nullptr ? *stair : discarded;

  // Range/kernel split of the exactly-skew E1 through the
  // skew-tridiagonal compression kernel, which also delivers E1's skew
  // Schur form: range columns (2i, 2i+1) satisfy R_2i^T E1 R_2i+1 = s_i.
  linalg::CompressionOptions opts;
  opts.rankTol = rankTol;
  opts.wantRange = true;
  opts.wantNullspace = true;  // for skew E1, Ker(E1) == Ker(E1^T)
  linalg::Compression ce = linalg::compress(s1.e, opts, rankReport, &sr);
  ++sr.chainLength;
  const std::size_t r = ce.rank;
  const std::size_t h = r / 2;
  out.removed = n - r;
  if (r > 0 && ce.kernelUsed != linalg::CompressionKernel::SkewTridiagonal)
    throw std::invalid_argument(
        "removeNondynamicModes: E1 is not exactly skew-symmetric");

  // U = [R_even R_odd K]: in these coordinates E11 = R^T E1 R is exactly
  // [0 S; -S 0] with S = diag(s_0, s_1, ...), read off the compression.
  Matrix u(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < h; ++k) {
      u(i, k) = ce.range(i, 2 * k);
      u(i, h + k) = ce.range(i, 2 * k + 1);
    }
    for (std::size_t k = 0; k < out.removed; ++k)
      u(i, r + k) = ce.nullspace(i, k);
  }
  // One product A1 * U feeds all three A blocks.
  Matrix uau = linalg::atb(u, s1.a * u);
  Matrix a11 = uau.block(0, 0, r, r);
  Matrix a12 = uau.block(0, r, r, out.removed);
  Matrix a22 = uau.block(r, r, out.removed, out.removed);
  linalg::symmetrize(a11);
  linalg::symmetrize(a22);
  Matrix cu = s1.c * u;
  Matrix c1 = cu.block(0, 0, s1.c.rows(), r);
  Matrix c2 = cu.block(0, r, s1.c.rows(), out.removed);

  if (out.removed == 0) {
    // Nothing to eliminate: the A22 certificate step is skipped.
    ++sr.truncatedSteps;
  } else {
    // Impulse-freeness certificate: rank(A22) == removed, through the same
    // compression entry point so the decision and kernel mix are recorded.
    // A singular A22 leaves impulsive modes: G cannot be passive.
    linalg::CompressionOptions a22Opts;
    a22Opts.rankTol = rankTol;
    linalg::Compression ca22 =
        linalg::compress(a22, a22Opts, rankReport, &sr);
    ++sr.chainLength;
    if (ca22.rank < out.removed) return out;
  }
  out.impulseFree = true;

  // Schur-complement strong equivalence (Eq. 19):
  //   A2 = A11 - A12 A22^{-1} A12^T   (symmetric)
  //   C2' = C1 - C2 A22^{-1} A12^T
  //   D2 = D + C2 A22^{-1} C2^T       (input map is -C^T)
  Matrix a2 = std::move(a11), c2p = std::move(c1), d2 = s1.d;
  if (out.removed > 0) {
    linalg::LU lu(a22);
    Matrix a22InvA21 = lu.solve(a12.transposed());  // A22^{-1} A12^T
    Matrix a22InvC2t = lu.solve(c2.transposed());   // A22^{-1} C2^T
    a2 -= a12 * a22InvA21;
    c2p -= c2 * a22InvA21;
    d2 += c2 * a22InvC2t;
    linalg::symmetrize(a2);
    linalg::symmetrize(d2);
  }

  // Stage 3 (Eq. 20): left-multiply the pencil by -J to restore the SHH
  // structure. E3 = -J E11 = diag(S, S) is skew-Hamiltonian and already
  // in the normal form extractProperPart scales to the identity; A3 =
  // -J A2 is Hamiltonian because J A3 = A2 is symmetric; and the input
  // map -C^T becomes -J(-C^T) = J C3^T, the structured B of
  // ShhRealization.
  out.shh.e = Matrix(r, r);
  for (std::size_t k = 0; k < h; ++k) {
    out.shh.e(k, k) = ce.sigma[2 * k];
    out.shh.e(h + k, h + k) = ce.sigma[2 * k];
  }
  out.shh.a = -1.0 * shh::applyJ(a2);
  out.shh.c = std::move(c2p);
  out.shh.d = std::move(d2);
  return out;
}

}  // namespace shhpass::core
