// Stage 1 of the proposed test (Sec. 3.1, Eqs. 11-17): remove the
// impulse-unobservable and impulse-uncontrollable modes of Phi(s).
//
// Key structural facts used (proved from the SHH identities E^T J = J E and
// A^T J = -J A):
//   * the impulse-unobservable subspace of Phi is
//       V_o = { v : E v = 0, A v in Im E, C v = 0 },
//   * J V_o is exactly the impulse-uncontrollable (left) subspace
//       { w : E^T w = 0, A^T w in Im E^T, B^T w = 0 },
// so projecting with right basis V = complement(V_o) and left basis
// W = -J V removes both families at once and yields a skew-symmetric /
// symmetric reduced pencil (E1, A1) with input map -C1^T (Eq. 17).
//
// The stage runs as a one-pass staircase reduction (linalg/staircase.hpp):
// it compresses Phi's E once — exploiting its exact diag(E, E^T) block
// structure when present, so ONE half-size compression serves both
// blocks, and that one is the caller's compression of G's own E when
// handed in — then derives every kernel/range basis of the chain from
// that compression plus two tall QR-compressions, and truncates the chain
// as soon as the deflation subspace is empty.
#pragma once

#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"
#include "shh/shh_pencil.hpp"

namespace shhpass::core {

/// Result of the stage-1 deflation.
struct ImpulseDeflationResult {
  shh::SkewSymRealization reduced;  ///< (E1, A1, C1, D) with B1 = -C1^T.
  std::size_t removed = 0;          ///< dim V_o = number of deflated
                                    ///< unobservable (= uncontrollable)
                                    ///< impulsive directions.
  linalg::Matrix impulseUnobservable;  ///< Orthonormal basis of V_o.
  /// When the stage detected Phi's exact diag(E, E^T) block structure and
  /// compressed the half-size E block itself (no `eCompression` handed
  /// in), that compression of G's own E is kept here for reuse.
  bool hasHalfECompression = false;
  linalg::Compression halfECompression;
};

/// One pass of the deflation (sufficient for minimal passive G, which has
/// generalized eigenvectors of grade at most 2). Every rank decision is
/// recorded into `rankReport` and the staircase-chain health (kernel mix,
/// fallbacks, truncation) into `stair`, when non-null. A non-null
/// `eCompression` must be a compression of G's E with all four bases
/// (linalg::CompressionOptions::allBases, under the same rankTol); it
/// serves as the half-size block's compression instead of recompressing
/// it: the block is the same matrix, so the bits are too.
ImpulseDeflationResult deflateImpulseModes(
    const shh::ShhRealization& phi, double rankTol = -1.0,
    linalg::RankReport* rankReport = nullptr,
    linalg::StaircaseReport* stair = nullptr,
    const linalg::Compression* eCompression = nullptr);

}  // namespace shhpass::core
