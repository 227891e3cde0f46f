#include "baselines/weierstrass.hpp"

#include "ds/balance.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "baselines/qz.hpp"
#include "control/pr_test.hpp"
#include "control/sylvester.hpp"
#include "core/markov.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/schur.hpp"
#include "linalg/schur_reorder.hpp"
#include "linalg/svd.hpp"

namespace shhpass::ds {

using linalg::Matrix;

std::vector<Matrix> WeierstrassForm::markovParameters(std::size_t kmax) const {
  std::vector<Matrix> mk;
  mk.reserve(kmax + 1);
  // (sN - I)^{-1} = -(I + sN + s^2 N^2 + ...)  =>  Mk = -Cinf N^k Binf.
  Matrix power = Matrix::identity(n.rows());
  for (std::size_t k = 0; k <= kmax; ++k) {
    if (n.rows() == 0) {
      mk.emplace_back(cinf.rows(), binf.cols());
    } else {
      mk.push_back(-1.0 * (cinf * power * binf));
      power = power * n;
    }
  }
  return mk;
}

WeierstrassForm weierstrass(const DescriptorSystem& sys, double infTol) {
  sys.validate();
  const std::size_t n = sys.order();
  WeierstrassForm wf;
  wf.d = sys.d;
  if (n == 0) return wf;

  // Shift-and-invert: M = (A - sigma E)^{-1} E maps finite eigenvalues of
  // the pencil to mu = 1/(lambda - sigma) and infinite ones to mu = 0.
  linalg::GeneralizedEigenvalues ge =
      linalg::generalizedEigenvalues(sys.e, sys.a, infTol);
  const double sigma = ge.shiftUsed;
  Matrix w = sys.a - sigma * sys.e;
  linalg::LU wlu(w);
  Matrix m = wlu.solve(sys.e);

  // Ordered Schur: finite modes (|mu| above the cut) first. A borderline
  // eigenvalue sitting exactly on the cut makes the decoupling Sylvester
  // equation singular; retry with a coarser cut, absorbing it into the
  // infinite group (its contribution is then treated as nilpotent noise).
  linalg::RealSchurResult rsOrig = linalg::realSchur(m);
  double muMax = 0.0;
  for (const auto& l : rsOrig.eigenvalues)
    muMax = std::max(muMax, std::abs(l));

  linalg::RealSchurResult rs;
  std::size_t q = 0, k = 0;
  Matrix m11, m22, r;
  bool decoupled = false;
  for (double cutScale : {1.0, 10.0, 100.0, 1000.0}) {
    rs = rsOrig;
    const double cut = cutScale * infTol * std::max(muMax, 1e-300);
    linalg::ReorderReport rep;
    q = linalg::reorderSchur(
        rs.t, rs.q,
        [cut](std::complex<double> l) { return std::abs(l) > cut; }, &rep);
    // A rejected swap means a borderline eigenvalue pair straddles the
    // cut and could not be exchanged: the "infinite" trailing block may
    // still hold a finite mode. Treat the attempt as failed and retry
    // with a coarser cut, which absorbs the pair into one group.
    if (rep.rejectedSwaps > 0) continue;
    k = n - q;
    m11 = rs.t.block(0, 0, q, q);
    m22 = rs.t.block(q, q, k, k);
    r = Matrix(q, k);
    if (q == 0 || k == 0) {
      decoupled = true;
      break;
    }
    Matrix m12 = rs.t.block(0, q, q, k);
    try {
      r = control::solveSylvester(m11, -1.0 * m22, -1.0 * m12);
      decoupled = true;
      break;
    } catch (const std::runtime_error&) {
      // widen the cut and retry
    }
  }
  if (!decoupled)
    throw std::runtime_error(
        "weierstrass: finite/infinite spectra could not be separated");
  Matrix zright = rs.q;  // orthogonal Schur basis
  Matrix s = Matrix::identity(n);
  s.setBlock(0, q, r);
  Matrix z = zright * s;  // right transform Z = Q_schur * S

  // Left transform L = (W Z)^{-1}; then L E Z = diag(M11, M22) and
  // L A Z = I + sigma diag(M11, M22).
  Matrix wz = w * z;
  linalg::LU wzlu(wz);
  // The baseline's own pivot cutoffs.  lint-ok: rank-tol-literal
  if (wzlu.isSingular(1e-13))
    throw std::runtime_error("weierstrass: left transform singular");
  Matrix lb = wzlu.solve(sys.b);   // L B
  Matrix cz = sys.c * z;           // C Z

  // Finite block scaling: M11^{-1} (I block) gives Ap = sigma I + M11^{-1}.
  if (q > 0) {
    linalg::LU m11lu(m11);
    if (m11lu.isSingular(1e-13))  // lint-ok: rank-tol-literal
      throw std::runtime_error("weierstrass: finite block singular");
    wf.ap = sigma * Matrix::identity(q) + m11lu.inverse();
    wf.bp = m11lu.solve(lb.block(0, 0, q, sys.numInputs()));
    wf.cp = cz.block(0, 0, sys.numOutputs(), q);
  } else {
    wf.ap = Matrix();
    wf.bp = Matrix(0, sys.numInputs());
    wf.cp = Matrix(sys.numOutputs(), 0);
  }

  // Infinite block: E-part M22 (nilpotent up to round-off), A-part
  // I + sigma M22 invertible; scale left by its inverse to reach (N, I).
  if (k > 0) {
    Matrix ainf = Matrix::identity(k) + sigma * m22;
    linalg::LU ainfLu(ainf);
    wf.n = ainfLu.solve(m22);
    // Scrub the (tiny) diagonal so N is exactly nilpotent-triangular.
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j <= i; ++j) wf.n(i, j) = 0.0;
    wf.binf = ainfLu.solve(lb.block(q, 0, k, sys.numInputs()));
    wf.cinf = cz.block(0, q, sys.numOutputs(), k);
  } else {
    wf.n = Matrix();
    wf.binf = Matrix(0, sys.numInputs());
    wf.cinf = Matrix(sys.numOutputs(), 0);
  }

  wf.condRight = linalg::SVD(z).cond();
  wf.condLeft = linalg::SVD(wz).cond();
  return wf;
}

WeierstrassPassivityResult testPassivityWeierstrass(
    const DescriptorSystem& sysIn) {
  if (!sysIn.isSquareSystem())
    throw std::invalid_argument(
        "testPassivityWeierstrass: system must be square");
  WeierstrassPassivityResult res;
  // Balance first (exact r.s.e. + frequency scaling): raw physical units
  // put fast finite modes below the finite/infinite classification cut of
  // the shift-and-invert separation. The PSD/zero verdicts on the Markov
  // parameters are invariant under the positive frequency scaling.
  DescriptorSystem sys = balanceDescriptor(sysIn).sys;
  res.form = weierstrass(sys);
  const WeierstrassForm& wf = res.form;

  // Markov parameters: need M1 >= 0 and Mk = 0 for k >= 2 (Eq. 3).
  //
  // The explicit products Mk = -Cinf N^k Binf for k >= 2 pass through the
  // NON-ORTHOGONAL Weierstrass transforms (and through the decoupling
  // Sylvester solution, whose norm grows like 1/separation), so their
  // numerical noise floor can reach 1e-4 on balanced physical models —
  // exactly the ill-conditioning the paper criticizes. The grade-structure
  // question "Mk = 0 for k >= 2" is therefore decided by the robust
  // first-order rank test on the original pencil instead.
  std::vector<Matrix> mk = wf.markovParameters(2);
  res.higherMarkovZero = !core::hasHigherOrderImpulses(sys);
  Matrix m1 = mk[1];
  // The residue matrix at infinity must be symmetric PSD: a significant
  // skew part already violates positive realness. Tolerance scaled by the
  // transform conditioning (see above).
  const double eps = std::numeric_limits<double>::epsilon();
  const double m1Floor =
      std::max(1e-8 * std::max(1.0, m1.maxAbs()),
               1e3 * eps * wf.condLeft * std::max(1.0, m1.maxAbs()));
  const bool m1Symmetric = m1.isSymmetric(m1Floor);
  linalg::symmetrize(m1);
  res.m1Psd = m1Symmetric && linalg::isPositiveSemidefinite(m1);

  // Proper part: Gp(s) = (D + M0) + Cp (sI - Ap)^{-1} Bp.
  Matrix d0 = wf.d + mk[0];
  control::PrTestResult pr =
      control::testPositiveRealProper(wf.ap, wf.bp, wf.cp, d0);
  res.properPartPassive = pr.positiveReal;

  res.passive = res.properPartPassive && res.m1Psd && res.higherMarkovZero;
  return res;
}

}  // namespace shhpass::ds
