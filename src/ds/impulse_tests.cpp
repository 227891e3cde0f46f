#include "ds/impulse_tests.hpp"

#include <stdexcept>

#include "linalg/blas.hpp"

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
    linalg::CompressionOptions full;
    full.rankTol = rankTol;
    full.wantRange = full.wantCorange = true;
    full.wantNullspace = full.wantLeftNullspace = true;
    local = linalg::compress(sys.e, full, rankReport, &sr);
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
  std::size_t xDim = 0;
  while (grown > xDim) {
    linalg::CompressionOptions rangeOnly;
    rangeOnly.rankTol = rankTol;
    rangeOnly.wantRange = true;
    Matrix x = linalg::compress(image, rangeOnly, rankReport, &sr).range;
    if (x.cols() <= xDim) break;
    xDim = x.cols();
    out.wongDims.push_back(k + xDim);
    const linalg::Compression level = linalg::compress(
        linalg::hcat(out.projAK, linalg::projectOutTwice(ce->range, a * x)),
        nullspaceOnly(rankTol), rankReport, &sr);
    ++sr.chainLength;
    grown = level.nullity();
    if (grown > xDim)
      image = ce->applyPinv(a * (linalg::hcat(out.kerE, x) * level.nullspace));
  }
  return out;
}

ModeCensus censusModes(const DescriptorSystem& sys, double rankTol) {
  const ImpulsiveStructure s = impulsiveStructure(sys, rankTol);
  if (!isRegular(sys))
    throw std::runtime_error(
        "censusModes: pencil is singular (no regular shift found)");
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
