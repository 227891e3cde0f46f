// Stages 4-5 of the proposed test (Sec. 3.3, Eqs. 21-23): transform the
// impulse-free SHH realization (E3 nonsingular) into a *regular* system
// -sI + A4 with A4 Hamiltonian, then split off the stable proper part
//   Hp(s) = D/2 + C_1 (sI - Lambda)^{-1} B_1,
// so that Phi(s) = Hp(s) + Hp~(s). Hp is (up to the symmetrized
// feedthrough) the proper part of the original G — the paper's "sidetrack".
//
// The E3 normalization uses the structured factorization
//   Z^T E3 Z = K = K_L K_R,  K_L = [Ebar -X^T; 0 I],  K_R = [I X; 0 Ebar^T],
//   X = Ebar^{-1} Theta / 2,
// with Z orthogonal symplectic from the isotropic-Arnoldi reduction; then
// Z_L = K_L^{-1} Z^T and Z_R = Z K_R^{-1} satisfy Z_L E3 Z_R = I and keep
// A4 = Z_L A3 Z_R Hamiltonian and B4 = J C4^T.
#pragma once

#include "linalg/schur_multishift.hpp"
#include "linalg/schur_reorder.hpp"
#include "linalg/svd.hpp"
#include "shh/shh_pencil.hpp"

namespace shhpass::core {

/// The extracted stable proper half of Phi.
struct ProperPartResult {
  bool ok = false;          ///< False if A4 has imaginary-axis eigenvalues
                            ///< (finite lossless poles; the split fails).
  linalg::Matrix lambda;    ///< np x np stable state matrix.
  linalg::Matrix b1;        ///< np x m input map.
  linalg::Matrix c1;        ///< m x np output map.
  linalg::Matrix dHalf;     ///< m x m feedthrough D_phi / 2.
  linalg::Matrix a4;        ///< The intermediate Hamiltonian A4 (diagnostic).
  /// Condition number of Ebar, the triangular factor of the E3
  /// normalizer K = K_L K_R that the normalization solves against
  /// (every Z_L / Z_R solve goes through LU(Ebar), so this is the
  /// conditioning that bounds their error).
  double condNormalizer = 1.0;
  /// Health record of the Schur reordering behind the Eq.-(22) split.
  linalg::ReorderReport reorder;
  /// Health record of the real Schur eigensolver behind that split
  /// (multishift/unblocked path, sweep / AED / shift / iteration
  /// counters — linalg/schur_multishift.hpp).
  linalg::SchurReport schur;
  /// Health of the SVD rank decision on Ebar, the inverted factor of
  /// the E3 normalizer (shared policy, svd.hpp): full rank expected; a
  /// dropped value here means the upstream nonsingularity invariant is
  /// numerically marginal.
  linalg::RankReport rankReport;
};

/// Extract the stable proper part from an impulse-free SHH realization with
/// nonsingular skew-Hamiltonian E3. Throws std::runtime_error if E3 is
/// numerically singular (pipeline invariant violated upstream). `rankTol`
/// feeds the shared-policy rank decision on the normalizer (negative =
/// SVD default), matching the tolerance the deflation stages used.
ProperPartResult extractProperPart(const shh::ShhRealization& s3,
                                   double imagTol = 1e-8,
                                   double rankTol = -1.0);

}  // namespace shhpass::core
