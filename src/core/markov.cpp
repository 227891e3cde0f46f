#include "core/markov.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"

namespace shhpass::core {

using linalg::Matrix;

M1Extraction extractM1(const ds::DescriptorSystem& g,
                       const ds::ImpulsiveStructure& structure) {
  M1Extraction out;
  out.m1 = Matrix(g.numOutputs(), g.numInputs());
  const std::size_t p = structure.heads.cols();
  out.chainCount = p;
  if (p == 0 || structure.leftHeads.cols() != p) {
    // No impulsive chains (or a left/right mismatch indicating structure
    // beyond one grade-2 family, handled by the higher-order check).
    out.symmetric = true;
    out.psd = p == 0;
    return out;
  }

  // Project onto the impulsive deflating subspaces Z_R = [V1 V2],
  // Z_L = [W1 W2] (Eq. 25) and evaluate M1 = -Cinf Ainf^{-1} Einf Ainf^{-1}
  // Binf.
  Matrix zr = linalg::hcat(structure.heads, structure.partners);
  Matrix zl = linalg::hcat(structure.leftHeads, structure.leftPartners);
  Matrix einf = linalg::multiply(linalg::atb(zl, g.e), false, zr, false);
  Matrix ainf = linalg::multiply(linalg::atb(zl, g.a), false, zr, false);
  Matrix binf = linalg::atb(zl, g.b);
  Matrix cinf = g.c * zr;

  linalg::LU alu(ainf);
  // lint-ok: rank-tol-literal  ROADMAP item 1 step 2
  if (alu.isSingular(1e-12)) {
    // Invertibility of Ainf follows from the Weierstrass structure for
    // clean grade-2 families; failure indicates deeper structure.
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

M1Extraction extractM1(const ds::DescriptorSystem& g, double rankTol,
                       DeflationPath, const linalg::Compression* eCompression,
                       linalg::RankReport* rankReport,
                       linalg::StaircaseReport* stair) {
  return extractM1(g, ds::impulsiveStructure(g, rankTol, eCompression,
                                             rankReport, stair));
}

bool hasHigherOrderImpulses(const ds::DescriptorSystem& g, double rankTol,
                            linalg::RankReport* report,
                            linalg::StaircaseReport* stair,
                            const linalg::Compression* eCompression) {
  return ds::impulsiveStructure(g, rankTol, eCompression, report, stair)
             .index() >= 3;
}

}  // namespace shhpass::core
