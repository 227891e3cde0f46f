// Stages 4-5 of the proposed test (Sec. 3.3, Eqs. 21-23): transform the
// impulse-free SHH realization (E3 nonsingular) into a *regular* system
// -sI + A4 with A4 Hamiltonian, then split off the stable proper part
//   Hp(s) = D/2 + C_1 (sI - Lambda)^{-1} B_1,
// so that Phi(s) = Hp(s) + Hp~(s). Hp is (up to the symmetrized
// feedthrough) the proper part of the original G — the paper's "sidetrack".
//
// The E3 normalization (Eq. 21) is a diagonal scaling: the nondynamic
// stage hands over E3 in the normal form diag(S, S), S diagonal and
// positive (E1's skew Schur form, core/nondynamic.hpp), so
//   Z_L = Z_R = diag(S^{-1/2}, S^{-1/2})
// satisfy Z_L E3 Z_R = I. The scaling commutes with J, so
// A4 = Z_L A3 Z_R stays Hamiltonian and B4 = J C4^T with C4 = C3 Z_R. The
// paper's general construction (isotropic-Arnoldi Z with
// Z^T E3 Z = [Ebar Theta; 0 Ebar^T] and K = K_L K_R) reduces to this
// on the normal form; tests/normalizer_oracle.hpp keeps it as the oracle.
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
  /// Condition number of the E3 normalizer: s_max / s_min over the
  /// diagonal S of E3 = diag(S, S), the entries the Eq.-21 scaling
  /// divides by.
  double condNormalizer = 1.0;
  /// Health record of the Schur reordering behind the Eq.-(22) split.
  linalg::ReorderReport reorder;
  /// Health record of the real Schur eigensolver behind that split
  /// (multishift/unblocked path, sweep / AED / shift / iteration
  /// counters — linalg/schur_multishift.hpp).
  linalg::SchurReport schur;
};

/// Extract the stable proper part from an impulse-free SHH realization
/// whose E3 is in the normal form diag(S, S) that removeNondynamicModes
/// returns. Throws std::invalid_argument if E3 is not exactly of that form
/// (nonzero off-diagonal entry, unequal halves, negative entry) and
/// std::runtime_error if it is numerically singular,
/// s_min <= 1e-12 s_max (pipeline invariant violated upstream). `rankTol`
/// feeds the shared-policy rank decision on S (negative = SVD default),
/// matching the tolerance the deflation stages used. That decision is
/// recorded into `rankReport` when non-null: full rank is expected, and a
/// dropped value means the upstream nonsingularity invariant is
/// numerically marginal.
ProperPartResult extractProperPart(const shh::ShhRealization& s3,
                                   double imagTol = 1e-8,
                                   double rankTol = -1.0,
                                   linalg::RankReport* rankReport = nullptr);

}  // namespace shhpass::core
