#include "ds/impulse_tests.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/schur.hpp"
#include "obs/trace.hpp"

namespace shhpass::ds {

using linalg::Matrix;

namespace {

linalg::CompressionOptions nullspaceOnly(double rankTol) {
  linalg::CompressionOptions o;
  o.rankTol = rankTol;
  o.wantNullspace = true;
  return o;
}

// Full column rank under the shared policy.
bool hasFullColumnRank(const Matrix& m, double rankTol) {
  linalg::CompressionOptions o;
  o.rankTol = rankTol;
  return linalg::compress(m, o).nullity() == 0;
}

}  // namespace

ImpulsiveStructure impulsiveStructure(const DescriptorSystem& sys,
                                      double rankTol,
                                      const linalg::Compression* eCompression,
                                      linalg::RankReport* rankReport,
                                      linalg::StaircaseReport* stair) {
  sys.validate();
  linalg::StaircaseReport discarded;
  linalg::StaircaseReport& sr = stair != nullptr ? *stair : discarded;
  const Matrix& a = sys.a;
  const std::size_t n = sys.order();
  ImpulsiveStructure out;
  out.order = n;
  out.infiniteBasis = Matrix(n, 0);

  // ONE compression of E serves every step: Ker E / Im E for the right
  // chains, Ker E^T / Im E^T for the left ones, and E^+ / (E^T)^+ for the
  // partners. The caller's compression is reused when it carries all four
  // bases.
  const linalg::Compression* ce = eCompression;
  linalg::Compression local;
  if (ce != nullptr && ce->rows == n && ce->cols == n &&
      ce->range.cols() == ce->rank && ce->corange.cols() == ce->rank &&
      ce->nullspace.cols() == ce->nullity() &&
      ce->leftNullspace.cols() == n - ce->rank) {
    ++sr.reusedCompressions;
  } else {
    local = linalg::compress(
        sys.e, linalg::CompressionOptions::allBases(rankTol), rankReport, &sr);
    ce = &local;
  }
  ++sr.chainLength;
  out.rankE = ce->rank;
  const std::size_t k = n - ce->rank;
  if (k == 0) return out;  // W_1 = {0}: index 0
  out.kerE = ce->nullspace;
  out.leftKerE = ce->leftNullspace;

  // Grade-2 heads: v in Ker E with A v in Im E, i.e. the kernel of
  // (I - R R^T) A K; on the left the same on (E^T, A^T).
  out.projAK = linalg::projectOutTwice(ce->range, a * out.kerE);
  out.heads =
      out.kerE * linalg::compress(out.projAK, nullspaceOnly(rankTol),
                                  rankReport, &sr)
                     .nullspace;
  out.projAtKl =
      linalg::projectOutTwice(ce->corange, linalg::atb(a, out.leftKerE));
  out.leftHeads =
      out.leftKerE * linalg::compress(out.projAtKl, nullspaceOnly(rankTol),
                                      rankReport, &sr)
                         .nullspace;
  sr.chainLength += 2;
  // Grade-2 partners through the same compression (minimum-norm
  // solutions of E V2 = A V1 and E^T W2 = A^T W1, Eq. 25).
  if (out.heads.cols() > 0) {
    out.partners = ce->applyPinv(a * out.heads);
    ++sr.reusedCompressions;
  } else {
    ++sr.truncatedSteps;  // impulse-free: the sequence stops at W_1
  }
  if (out.leftHeads.cols() > 0) {
    out.leftPartners = ce->applyPinvTranspose(linalg::atb(a, out.leftHeads));
    ++sr.reusedCompressions;
  }

  // The Wong levels. W_j = [K, X] with X an orthonormal basis inside
  // Im E^T, so A W_j ∩ Im E is A W_j times the kernel of
  // (I - R R^T) A W_j = [projAK, (I - R R^T) A X], whose nullity `grown`
  // is dim W_{j+1} - dim Ker E (A is injective on W* for a regular
  // pencil). The sequence has stopped once that does not exceed dim X.
  out.wongDims.push_back(k);
  Matrix image = out.partners;  // E^+ (A W_j ∩ Im E)
  std::size_t grown = out.heads.cols();
  Matrix x(n, 0);
  while (grown > x.cols()) {
    linalg::CompressionOptions rangeOnly;
    rangeOnly.rankTol = rankTol;
    rangeOnly.wantRange = true;
    Matrix next = linalg::compress(image, rangeOnly, rankReport, &sr).range;
    if (next.cols() <= x.cols()) break;
    x = std::move(next);
    out.wongDims.push_back(k + x.cols());
    const linalg::Compression level = linalg::compress(
        linalg::hcat(out.projAK, linalg::projectOutTwice(ce->range, a * x)),
        nullspaceOnly(rankTol), rankReport, &sr);
    ++sr.chainLength;
    grown = level.nullity();
    if (grown > x.cols())
      image = ce->applyPinv(a * (linalg::hcat(out.kerE, x) * level.nullspace));
  }
  out.infiniteBasis = linalg::hcat(out.kerE, x);
  return out;
}

bool FiniteSpectrum::stable() const {
  return std::all_of(eigenvalues.begin(), eigenvalues.end(),
                     [](std::complex<double> l) { return l.real() < 0.0; });
}

FiniteSpectrum finiteSpectrum(const DescriptorSystem& sys,
                              const ImpulsiveStructure& s,
                              const linalg::Compression& eCompression,
                              double rankTol, linalg::RankReport* rankReport,
                              linalg::StaircaseReport* stair) {
  const std::size_t n = s.order, k = n - s.rankE;
  obs::ObsSpan span("stability-screen", "kernel", n >= 32);
  span.arg("n", static_cast<std::int64_t>(n));
  FiniteSpectrum out;
  out.regular = true;
  Matrix ef = sys.e, af = sys.a;  // E nonsingular: all of (E, A) is finite
  if (s.infiniteDim() > 0) {
    // Regular iff A W* has full column rank; Z⊥ is its left nullspace.
    linalg::CompressionOptions o;
    o.rankTol = rankTol;
    o.wantLeftNullspace = true;
    const linalg::Compression aw = linalg::compress(
        sys.a * s.infiniteBasis, o, rankReport, stair);
    out.regular = aw.nullity() == 0;
    if (!out.regular) return out;
    // W⊥ lies in Im E^T: E's corange less the last Wong level X.
    const Matrix& q = eCompression.corange;
    const Matrix x = s.infiniteBasis.block(0, k, n, s.infiniteDim() - k);
    const Matrix wPerp =
        x.cols() == 0
            ? q
            : q * linalg::orthonormalComplement(linalg::atb(q, x));
    ef = linalg::atb(aw.leftNullspace, sys.e * wPerp);
    af = linalg::atb(aw.leftNullspace, sys.a * wPerp);
  }
  if (ef.rows() > 0)
    out.eigenvalues = linalg::eigenvalues(linalg::LU(ef).solve(af));
  return out;
}

bool isRegular(const DescriptorSystem& sys) {
  const ImpulsiveStructure s = impulsiveStructure(sys);
  return hasFullColumnRank(sys.a * s.infiniteBasis, -1.0);
}

bool hasStableFiniteModes(const DescriptorSystem& sys) {
  sys.validate();
  const linalg::Compression ce =
      linalg::compress(sys.e, linalg::CompressionOptions::allBases(-1.0));
  const FiniteSpectrum fs =
      finiteSpectrum(sys, impulsiveStructure(sys, -1.0, &ce), ce);
  if (!fs.regular)
    throw std::runtime_error("hasStableFiniteModes: pencil is singular");
  return fs.stable();
}

ModeCensus censusModes(const DescriptorSystem& sys, double rankTol) {
  const ImpulsiveStructure s = impulsiveStructure(sys, rankTol);
  if (!hasFullColumnRank(sys.a * s.infiniteBasis, rankTol))
    throw std::runtime_error("censusModes: pencil is singular");
  ModeCensus mc;
  mc.order = s.order;
  mc.rankE = s.rankE;
  mc.finite = s.order - s.infiniteDim();
  mc.nondynamic = s.order - s.rankE;
  mc.impulsive = s.infiniteDim() - mc.nondynamic;
  return mc;
}

bool isImpulseFree(const DescriptorSystem& sys, double rankTol) {
  return impulsiveStructure(sys, rankTol).heads.cols() == 0;
}

bool isImpulseObservable(const DescriptorSystem& sys, double rankTol) {
  const ImpulsiveStructure s = impulsiveStructure(sys, rankTol);
  if (s.kerE.cols() == 0) return true;
  return hasFullColumnRank(linalg::vcat(s.projAK, sys.c * s.kerE), rankTol);
}

bool isImpulseControllable(const DescriptorSystem& sys, double rankTol) {
  const ImpulsiveStructure s = impulsiveStructure(sys, rankTol);
  if (s.leftKerE.cols() == 0) return true;
  return hasFullColumnRank(
      linalg::vcat(s.projAtKl, linalg::atb(sys.b, s.leftKerE)), rankTol);
}

std::size_t pencilIndex(const DescriptorSystem& sys, double rankTol) {
  return impulsiveStructure(sys, rankTol).index();
}

}  // namespace shhpass::ds
