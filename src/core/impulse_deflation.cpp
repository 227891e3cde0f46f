#include "core/impulse_deflation.hpp"

#include "linalg/blas.hpp"
#include "linalg/staircase.hpp"
#include "shh/symplectic.hpp"

namespace shhpass::core {

using linalg::Matrix;

namespace {

using linalg::projectOutTwice;

// Is m exactly diag(M, sign * M^T) for some half-size block M? buildPhi
// produces E_phi = diag(E, E^T) (sign +1) and A_phi = diag(A, -A^T)
// (sign -1), both placed without arithmetic, so the structure survives
// bit-for-bit and exact zero/equality tests detect it.
bool hasPhiBlockStructure(const Matrix& m, double sign = 1.0) {
  const std::size_t n2 = m.rows();
  if (n2 == 0 || n2 % 2 != 0 || m.cols() != n2) return false;
  const std::size_t n = n2 / 2;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (m(i, n + j) != 0.0 || m(n + i, j) != 0.0) return false;
      if (m(n + i, n + j) != sign * m(j, i)) return false;
    }
  return true;
}

// Multiply diag(M, sign * M^T) * v without materializing the full
// operator: two half-size gemms instead of one double-size one. Each
// output element is the same ordered k-sum as the full product minus
// exactly-zero terms (and sign folds into the products exactly), so the
// result is bit-identical to the dense multiply.
Matrix blockDiagPhiMultiply(const Matrix& mHalf, const Matrix& v,
                            double sign = 1.0) {
  const std::size_t n = mHalf.rows();
  Matrix out(2 * n, v.cols());
  out.setBlock(0, 0, mHalf * v.block(0, 0, n, v.cols()));
  Matrix bot(n, v.cols());
  linalg::gemm(sign, mHalf, true, v.block(n, 0, n, v.cols()), false, 0.0,
               bot);
  out.setBlock(n, 0, bot);
  return out;
}

}  // namespace

ImpulseDeflationResult deflateImpulseModes(
    const shh::ShhRealization& phi, double rankTol,
    linalg::RankReport* rankReport, linalg::StaircaseReport* stair,
    const linalg::Compression* eCompression) {
  ImpulseDeflationResult out;
  linalg::StaircaseReport discarded;
  linalg::StaircaseReport& sr = stair != nullptr ? *stair : discarded;
  const std::size_t n2 = phi.order();
  // A_phi = diag(A, -A^T) from buildPhi: every A_phi * X below can run as
  // two half-size gemms (bit-identical values, half the flops).
  const bool aBlockDiag = hasPhiBlockStructure(phi.a, -1.0);
  const auto aMultiply = [&phi, aBlockDiag, n2](const Matrix& x) {
    return aBlockDiag
               ? blockDiagPhiMultiply(phi.a.block(0, 0, n2 / 2, n2 / 2), x,
                                      -1.0)
               : phi.a * x;
  };

  // Step 1: ONE compression of Phi's E. With the exact diag(E, E^T)
  // structure, a single half-size compression yields all four subspace
  // bases of the full operator:
  //   Ker diag(E, E^T) = diag(Ker E, Ker E^T),
  //   Im  diag(E, E^T) = diag(Im E,  Im E^T) = diag(range, corange).
  Matrix kerE, rangeE;
  const auto full = linalg::CompressionOptions::allBases(rankTol);
  const bool halfBlocks = hasPhiBlockStructure(phi.e);
  if (halfBlocks) {
    const std::size_t n = n2 / 2;
    if (eCompression != nullptr) {
      ++sr.reusedCompressions;
    } else {
      out.halfECompression = linalg::compress(
          phi.e.block(0, 0, n, n), full, rankReport, &sr);
      out.hasHalfECompression = true;
      eCompression = &out.halfECompression;
    }
    ++sr.reusedCompressions;  // one compression served both blocks
    const linalg::Compression& ce = *eCompression;
    kerE = Matrix(n2, ce.nullspace.cols() + ce.leftNullspace.cols());
    kerE.setBlock(0, 0, ce.nullspace);
    kerE.setBlock(n, ce.nullspace.cols(), ce.leftNullspace);
    rangeE = Matrix(n2, ce.range.cols() + ce.corange.cols());
    rangeE.setBlock(0, 0, ce.range);
    rangeE.setBlock(n, ce.range.cols(), ce.corange);
  } else {
    linalg::Compression ce =
        linalg::compress(phi.e, full, rankReport, &sr);
    kerE = std::move(ce.nullspace);
    rangeE = std::move(ce.range);
  }
  ++sr.chainLength;

  // Step 2: V_o = { v in Ker E : A v in Im E, C v = 0 } as the nullspace
  // of the tall stacked matrix [(I - R R^T) A K; C K].
  Matrix vo(n2, 0);
  if (kerE.cols() > 0) {
    Matrix ak = aMultiply(kerE);
    Matrix proj = projectOutTwice(rangeE, ak);
    Matrix stacked = linalg::vcat(proj, phi.c * kerE);
    linalg::CompressionOptions nullOnly;
    nullOnly.rankTol = rankTol;
    nullOnly.wantNullspace = true;
    linalg::Compression cs =
        linalg::compress(stacked, nullOnly, rankReport, &sr);
    ++sr.chainLength;
    if (cs.nullity() > 0) vo = kerE * cs.nullspace;
  }
  out.impulseUnobservable = vo;

  // Chain truncation: an empty deflation subspace means the projection
  // is the identity, so the reduction collapses to the exact structural
  // congruence E1 = J E, A1 = J A (W = -J, V = I) with no further
  // compressions or gemms.
  if (vo.cols() == 0) {
    ++sr.truncatedSteps;
    out.removed = 0;
    out.reduced.e = shh::applyJ(phi.e);
    out.reduced.a = shh::applyJ(phi.a);
    out.reduced.c = phi.c;
    out.reduced.d = phi.d;
    linalg::skewSymmetrize(out.reduced.e);
    linalg::symmetrize(out.reduced.a);
    return out;
  }

  // Step 3: the deflated right subspace is span([V_o, J A V_o]):
  // discarding V_o alone would leave a coupling through the rows J V_o.
  // Because A v in Im E for v in V_o and E^T J = J E, the cross block
  // (J V_o)^T A V_o vanishes, which makes the truncation exactly
  // transfer-preserving; the dual left subspace is J * (right subspace),
  // so the left keep-basis is -J V. One tall QR-compression provides the
  // span rank AND the complement (left nullspace) at once.
  Matrix partners = shh::applyJ(aMultiply(vo));
  linalg::CompressionOptions spanOpts;
  spanOpts.rankTol = rankTol;
  spanOpts.wantRange = false;
  spanOpts.wantLeftNullspace = true;
  linalg::Compression cspan = linalg::compress(
      linalg::hcat(vo, partners), spanOpts, rankReport, &sr);
  ++sr.chainLength;
  out.removed = cspan.rank;

  const Matrix v = std::move(cspan.leftNullspace);
  Matrix w = -1.0 * shh::applyJ(v);

  Matrix ev = halfBlocks
                  ? blockDiagPhiMultiply(phi.e.block(0, 0, n2 / 2, n2 / 2), v)
                  : phi.e * v;
  out.reduced.e = linalg::atb(w, ev);
  out.reduced.a = linalg::atb(w, aMultiply(v));
  out.reduced.c = phi.c * v;
  out.reduced.d = phi.d;
  // Scrub the structural symmetry (W^T E V = V^T J E V is skew because
  // J E is skew; likewise A1 is symmetric because J A is symmetric).
  linalg::skewSymmetrize(out.reduced.e);
  linalg::symmetrize(out.reduced.a);
  return out;
}

}  // namespace shhpass::core
