// Stages 2-3 of the proposed test (Sec. 3.2, Eqs. 18-20): remove the
// nondynamic (grade-1 infinite) modes of the reduced skew-symmetric /
// symmetric realization, then restore the SHH pencil structure by the
// left multiplication with -J.
//
// E1 is skew-symmetric, so Ker(E1) is orthogonal to Im(E1): the orthogonal
// U = [range(E1) kernel(E1)] gives U^T E1 U = diag(E11, 0) with E11 skew
// nonsingular (Eq. 18). The system is impulse-free at this stage iff
// A22 = K^T A1 K is nonsingular; the Schur-complement strong equivalence
// (Eq. 19) then eliminates the nondynamic states. A failure of the A22
// invertibility check here certifies leftover (observable/controllable)
// impulsive modes, hence a non-passive G.
//
// The stage is a staircase step (linalg/staircase.hpp): it gets the E1
// range/kernel split from the skew-tridiagonal compression kernel (one
// BLAS-3 Hessenberg + a half-size bidiagonal sweep instead of a full-size
// SVD) and truncates to identity coordinates when E1 is numerically
// nonsingular.
#pragma once

#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"
#include "shh/shh_pencil.hpp"

namespace shhpass::core {

/// Result of the nondynamic elimination.
struct NondynamicRemovalResult {
  bool impulseFree = false;   ///< False iff A22 was singular: leftover
                              ///< impulsive modes, G cannot be passive.
  std::size_t removed = 0;    ///< Number of nondynamic modes eliminated.
  shh::ShhRealization shh;    ///< (E3, A3, C3, D3) with E3 nonsingular
                              ///< skew-Hamiltonian, A3 Hamiltonian
                              ///< (valid only when impulseFree).
  /// Health of the SVD rank decisions taken (shared policy, svd.hpp):
  /// the E1 rank split and the A22 impulse-freeness certificate.
  linalg::RankReport rankReport;
  /// Staircase-chain health (kernel mix, fallbacks, chain truncation).
  linalg::StaircaseReport staircase;
};

/// Eliminate nondynamic modes and restore SHH structure. `rankTol` controls
/// the rank decisions on E1 and A22 (negative = SVD default).
NondynamicRemovalResult removeNondynamicModes(
    const shh::SkewSymRealization& s1, double rankTol = -1.0);

}  // namespace shhpass::core
