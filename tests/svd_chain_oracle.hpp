// Reference implementation of the deflation chain (Sec. 3.1-3.4: impulse
// deflation, Eqs. 11-17; nondynamic removal, Eqs. 18-20; M1 extraction,
// Eqs. 24-25) built from full SVDs of every matrix in the chain. It is the
// pre-staircase library code, kept here unchanged in arithmetic as the
// oracle the staircase production path is compared against
// (test_staircase_random.cpp, test_core_stages.cpp) and as the baseline of
// bench_pipeline's deflation-chain rows. Header-only; not part of the
// library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "ds/descriptor.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"
#include "shh/shh_pencil.hpp"
#include "shh/symplectic.hpp"

namespace shhpass::oracle {

using linalg::Matrix;

/// Stage-1 result: the reduced skew-symmetric / symmetric realization and
/// the number of deflated impulse-unobservable (= uncontrollable)
/// directions.
struct ImpulseDeflation {
  shh::SkewSymRealization reduced;
  std::size_t removed = 0;
  Matrix impulseUnobservable;  ///< Orthonormal basis of V_o.
};

/// Stage-2/3 result: impulse-freeness certificate and the SHH realization
/// with nonsingular E (valid only when impulseFree).
struct NondynamicRemoval {
  bool impulseFree = false;
  std::size_t removed = 0;
  shh::ShhRealization shh;
};

/// M1 extraction result (Eq. 25).
struct M1Extraction {
  Matrix m1;
  std::size_t chainCount = 0;
  bool symmetric = false;
  bool psd = false;
};

/// V_o = { v in Ker E : A v in Im E, C v = 0 } of an SHH realization.
inline Matrix impulseUnobservableSubspace(const shh::ShhRealization& phi,
                                          double rankTol = -1.0) {
  linalg::SVD esvd(phi.e);
  Matrix kerE = esvd.nullspace(rankTol);
  if (kerE.cols() == 0) return Matrix(phi.order(), 0);
  // Component of A * KerE outside Im E: (I - R R^T) A KerE, R = range(E),
  // with one re-orthogonalization pass.
  Matrix range = esvd.range(rankTol);
  Matrix proj = linalg::projectOutTwice(range, phi.a * kerE);
  Matrix stacked = linalg::vcat(proj, phi.c * kerE);
  Matrix coeff = linalg::SVD(stacked).nullspace(rankTol);
  if (coeff.cols() == 0) return Matrix(phi.order(), 0);
  return kerE * coeff;  // orthonormal: kerE orthonormal, coeff orthonormal
}

/// Stage 1 (Eqs. 11-17) with projection bases V = complement of
/// span([V_o, J A V_o]) and W = -J V.
inline ImpulseDeflation deflateImpulseModes(const shh::ShhRealization& phi,
                                            double rankTol = -1.0) {
  ImpulseDeflation out;
  out.impulseUnobservable = impulseUnobservableSubspace(phi, rankTol);

  // The deflated right subspace is span([V_o, J A V_o]): because
  // A v in Im E for v in V_o and E^T J = J E, the cross block
  // (J V_o)^T A V_o vanishes, which makes the truncation exactly
  // transfer-preserving.
  Matrix rBad = out.impulseUnobservable;
  if (rBad.cols() > 0) {
    Matrix partners = shh::applyJ(phi.a * out.impulseUnobservable);
    rBad = linalg::SVD(linalg::hcat(rBad, partners)).range(rankTol);
  }
  out.removed = rBad.cols();

  Matrix v = linalg::orthonormalComplement(rBad);
  Matrix w = -1.0 * shh::applyJ(v);
  out.reduced.e = linalg::multiply(linalg::atb(w, phi.e), false, v, false);
  out.reduced.a = linalg::multiply(linalg::atb(w, phi.a), false, v, false);
  out.reduced.c = phi.c * v;
  out.reduced.d = phi.d;
  linalg::skewSymmetrize(out.reduced.e);
  linalg::symmetrize(out.reduced.a);
  return out;
}

/// Stages 2-3 (Eqs. 18-20): split E1 by its SVD, certify A22 nonsingular,
/// eliminate the nondynamic states by the Schur complement and restore
/// the SHH structure with -J.
inline NondynamicRemoval removeNondynamicModes(
    const shh::SkewSymRealization& s1, double rankTol = -1.0) {
  NondynamicRemoval out;
  const std::size_t n = s1.order();

  // U = [R K]: for skew E1, Ker(E1) = Ker(E1^T), so the left nullspace
  // from the same U factor is an orthonormal completion of the range.
  linalg::SVD esvd(s1.e);
  const std::size_t r = esvd.rank(rankTol);
  Matrix rBasis = esvd.range(rankTol);
  Matrix kBasis = esvd.leftNullspace(rankTol);

  Matrix e11 = linalg::multiply(linalg::atb(rBasis, s1.e), false, rBasis,
                                false);
  linalg::skewSymmetrize(e11);
  Matrix a11 = linalg::multiply(linalg::atb(rBasis, s1.a), false, rBasis,
                                false);
  Matrix a12 = linalg::multiply(linalg::atb(rBasis, s1.a), false, kBasis,
                                false);
  Matrix a22 = linalg::multiply(linalg::atb(kBasis, s1.a), false, kBasis,
                                false);
  linalg::symmetrize(a11);
  linalg::symmetrize(a22);
  Matrix c1 = s1.c * rBasis;
  Matrix c2 = s1.c * kBasis;
  out.removed = n - r;

  // Impulse-freeness at this stage == A22 nonsingular (empty A22 is
  // trivially nonsingular).
  if (out.removed > 0 && linalg::SVD(a22).rank(rankTol) < out.removed) {
    out.impulseFree = false;
    return out;
  }
  out.impulseFree = true;

  Matrix a2 = a11, c2p = c1, d2 = s1.d;
  if (out.removed > 0) {
    linalg::LU lu(a22);
    Matrix a22InvA21 = lu.solve(a12.transposed());
    Matrix a22InvC2t = lu.solve(c2.transposed());
    a2 = a11 - a12 * a22InvA21;
    c2p = c1 - c2 * a22InvA21;
    d2 = s1.d + c2 * a22InvC2t;
    linalg::symmetrize(a2);
    linalg::symmetrize(d2);
  }

  if (r % 2 != 0)
    throw std::logic_error("oracle::removeNondynamicModes: odd rank of E1");
  Matrix j = Matrix::symplecticJ(r / 2);
  out.shh.e = -1.0 * (j * e11);
  out.shh.a = -1.0 * (j * a2);
  out.shh.c = c2p;
  out.shh.d = d2;
  return out;
}

/// Grade-1 chain heads with a grade-2 partner: { v in Ker E : A v in Im E }.
inline Matrix grade1WithPartners(const Matrix& e, const Matrix& a,
                                 double rankTol) {
  linalg::SVD esvd(e);
  Matrix ker = esvd.nullspace(rankTol);
  if (ker.cols() == 0) return Matrix(e.rows(), 0);
  Matrix range = esvd.range(rankTol);
  Matrix ak = a * ker;
  Matrix outside = ak - range * linalg::atb(range, ak);
  Matrix coeff = linalg::SVD(outside).nullspace(rankTol);
  if (coeff.cols() == 0) return Matrix(e.rows(), 0);
  return ker * coeff;
}

/// M1 of G from its grade-2 chains (Eqs. 24-25), with four SVDs of E.
inline M1Extraction extractM1(const ds::DescriptorSystem& g,
                              double rankTol = -1.0) {
  g.validate();
  M1Extraction out;
  out.m1 = Matrix(g.numOutputs(), g.numInputs());

  Matrix v1 = grade1WithPartners(g.e, g.a, rankTol);
  Matrix w1 = grade1WithPartners(g.e.transposed(), g.a.transposed(), rankTol);
  const std::size_t p = v1.cols();
  out.chainCount = p;
  if (p == 0 || w1.cols() != p) {
    out.symmetric = true;
    out.psd = p == 0;
    return out;
  }

  // Grade-2 partners: E V2 = A V1 and E^T W2 = A^T W1 (minimum-norm).
  Matrix v2 = linalg::SVD(g.e).pseudoInverse(rankTol) * (g.a * v1);
  Matrix w2 = linalg::SVD(g.e.transposed()).pseudoInverse(rankTol) *
              (g.a.transposed() * w1);

  Matrix zr = linalg::hcat(v1, v2);
  Matrix zl = linalg::hcat(w1, w2);
  Matrix einf = linalg::multiply(linalg::atb(zl, g.e), false, zr, false);
  Matrix ainf = linalg::multiply(linalg::atb(zl, g.a), false, zr, false);
  Matrix binf = linalg::atb(zl, g.b);
  Matrix cinf = g.c * zr;

  linalg::LU alu(ainf);
  if (alu.isSingular(1e-12)) {
    out.symmetric = false;
    out.psd = false;
    return out;
  }
  Matrix t = alu.solve(binf);
  t = einf * t;
  t = alu.solve(t);
  out.m1 = -1.0 * (cinf * t);

  const double scale = std::max(1.0, out.m1.maxAbs());
  out.symmetric = out.m1.isSymmetric(1e-8 * scale);
  if (out.symmetric) {
    Matrix sym = out.m1;
    linalg::symmetrize(sym);
    out.psd = linalg::isPositiveSemidefinite(sym);
  }
  return out;
}

}  // namespace shhpass::oracle
