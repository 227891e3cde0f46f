#include "ds/svd_coords.hpp"

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"

namespace shhpass::ds {

using linalg::Matrix;

Matrix SvdCoordinates::a11() const {
  return sys.a.block(0, 0, rankE, rankE);
}
Matrix SvdCoordinates::a12() const {
  return sys.a.block(0, rankE, rankE, sys.order() - rankE);
}
Matrix SvdCoordinates::a21() const {
  return sys.a.block(rankE, 0, sys.order() - rankE, rankE);
}
Matrix SvdCoordinates::a22() const {
  const std::size_t k = sys.order() - rankE;
  return sys.a.block(rankE, rankE, k, k);
}
Matrix SvdCoordinates::b1() const {
  return sys.b.block(0, 0, rankE, sys.numInputs());
}
Matrix SvdCoordinates::b2() const {
  return sys.b.block(rankE, 0, sys.order() - rankE, sys.numInputs());
}
Matrix SvdCoordinates::c1() const {
  return sys.c.block(0, 0, sys.numOutputs(), rankE);
}
Matrix SvdCoordinates::c2() const {
  return sys.c.block(0, rankE, sys.numOutputs(), sys.order() - rankE);
}

SvdCoordinates toSvdCoordinates(const DescriptorSystem& sys, double rankTol,
                                linalg::RankReport* rankReport) {
  sys.validate();
  SvdCoordinates out;
  linalg::SVD svd(sys.e);
  out.rankE = svd.rank(rankTol, rankReport);
  const std::size_t n = sys.order();
  // Full orthogonal U: range columns first, left-nullspace completion after.
  Matrix uFull = linalg::hcat(svd.range(rankTol), svd.leftNullspace(rankTol));
  // Right factor: leading rank columns of V, then kernel completion.
  Matrix vHead = svd.v().block(0, 0, n, out.rankE);
  Matrix vFull = linalg::hcat(vHead, svd.nullspace(rankTol));
  out.u = uFull;
  out.v = vFull;
  out.sys.e = linalg::multiply(linalg::atb(uFull, sys.e), false, vFull, false);
  out.sys.a = linalg::multiply(linalg::atb(uFull, sys.a), false, vFull, false);
  out.sys.b = linalg::atb(uFull, sys.b);
  out.sys.c = sys.c * vFull;
  out.sys.d = sys.d;
  // Scrub the exact zero blocks of E' (round-off hygiene for later tests).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i >= out.rankE || j >= out.rankE) out.sys.e(i, j) = 0.0;
  return out;
}

}  // namespace shhpass::ds
