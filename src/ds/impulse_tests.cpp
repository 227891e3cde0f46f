#include "ds/impulse_tests.hpp"

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/qz.hpp"
#include "linalg/svd.hpp"

namespace shhpass::ds {

using linalg::Matrix;

ModeCensus censusModes(const DescriptorSystem& sys, double rankTol) {
  sys.validate();
  ModeCensus mc;
  mc.order = sys.order();
  mc.rankE = linalg::SVD(sys.e).rank(rankTol);
  linalg::GeneralizedEigenvalues ge =
      linalg::generalizedEigenvalues(sys.e, sys.a);
  mc.finite = ge.finite.size();
  mc.nondynamic = mc.order - mc.rankE;
  mc.impulsive = mc.rankE - mc.finite;
  return mc;
}

bool isImpulseFree(const DescriptorSystem& sys, double rankTol) {
  SvdCoordinates sc = toSvdCoordinates(sys, rankTol);
  const std::size_t k = sys.order() - sc.rankE;
  if (k == 0) return true;  // E nonsingular ("A22 vanishes" = empty block)
  // A22 must be nonsingular for the system to be impulse-free.
  return linalg::SVD(sc.a22()).rank(rankTol) == k;
}

bool isImpulseObservable(const DescriptorSystem& sys, double rankTol) {
  SvdCoordinates sc = toSvdCoordinates(sys, rankTol);
  const std::size_t k = sys.order() - sc.rankE;
  if (k == 0) return true;
  Matrix stack = linalg::vcat(sc.a22(), sc.c2());
  return linalg::SVD(stack).rank(rankTol) == k;  // full column rank
}

bool isImpulseControllable(const DescriptorSystem& sys, double rankTol) {
  SvdCoordinates sc = toSvdCoordinates(sys, rankTol);
  const std::size_t k = sys.order() - sc.rankE;
  if (k == 0) return true;
  Matrix stack = linalg::hcat(sc.a22(), sc.b2());
  return linalg::SVD(stack).rank(rankTol) == k;  // full row rank
}

std::size_t pencilIndex(const DescriptorSystem& sys, double rankTol) {
  sys.validate();
  const std::size_t n = sys.order();
  if (n == 0) return 0;
  const std::size_t r = linalg::SVD(sys.e).rank(rankTol);
  if (r == n) return 0;
  if (isImpulseFree(sys, rankTol)) return 1;
  // General case: nilpotency degree of the infinite structure equals the
  // first k at which rank(M^k) stabilizes, M = (A - sigma E)^{-1} E.
  linalg::GeneralizedEigenvalues ge =
      linalg::generalizedEigenvalues(sys.e, sys.a);
  Matrix shifted = sys.a - ge.shiftUsed * sys.e;
  Matrix m = linalg::LU(shifted).solve(sys.e);
  std::size_t prevRank = n;
  Matrix power = m;
  for (std::size_t k = 1; k <= n; ++k) {
    // Powers of the nilpotent part decay geometrically, so the rank
    // plateau is detected against the power's own scale rather than the
    // shared policy cutoff (which would track the decaying sigma_max and
    // never see the plateau).  lint-ok: rank-tol-literal
    const std::size_t rk = linalg::SVD(power).rank(1e-10 * power.maxAbs());
    if (rk == prevRank) return k - 1;
    prevRank = rk;
    power = power * m;
  }
  return n;
}

}  // namespace shhpass::ds
