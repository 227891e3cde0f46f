// Weierstrass (Kronecker) decomposition of a regular descriptor system
// (Sec. 2.4, Eq. 8-9 of the paper) and the "conventional" passivity test
// built on it — the baseline the paper compares against.
//
// Implementation note (see docs/ARCHITECTURE.md, "Descriptor-system front
// end"): the paper uses GUPTRI; here the separation of finite and infinite
// structure is computed by shift-and-invert onto an ordered real Schur
// problem followed by a Sylvester decoupling and block scalings. Like any Weierstrass reduction this involves NON-ORTHOGONAL
// transformations; their conditioning is reported in the diagnostics, which
// is exactly the ill-conditioning the paper's proposed method avoids.
#pragma once

#include <vector>

#include "ds/descriptor.hpp"

namespace shhpass::ds {

/// Weierstrass canonical form of a regular DS:
///   L E Z = diag(I_q, N),  L A Z = diag(Ap, I),  N nilpotent,
/// giving G(s) = D + Cp (sI - Ap)^{-1} Bp + Cinf (sN - I)^{-1} Binf.
struct WeierstrassForm {
  linalg::Matrix ap;          ///< q x q finite-dynamics block.
  linalg::Matrix n;           ///< Nilpotent block of the infinite part.
  linalg::Matrix bp, cp;      ///< Proper-part port maps.
  linalg::Matrix binf, cinf;  ///< Infinite-part port maps.
  linalg::Matrix d;           ///< Original feedthrough.
  double condLeft = 1.0;      ///< Condition estimate of the left transform.
  double condRight = 1.0;     ///< Condition estimate of the right transform.

  std::size_t numFinite() const { return ap.rows(); }
  std::size_t numInfinite() const { return n.rows(); }

  /// Markov parameters of Eq. (3)/(9): M0 = -Cinf Binf, Mk = -Cinf N^k Binf.
  /// Returns M0..Mkmax.
  std::vector<linalg::Matrix> markovParameters(std::size_t kmax) const;
};

/// Compute the Weierstrass form. `infTol` is the relative eigenvalue
/// threshold separating infinite from finite modes of the shifted-inverse
/// operator. Throws std::runtime_error on a singular pencil.
WeierstrassForm weierstrass(const DescriptorSystem& sys, double infTol = 1e-6);

/// Result of the Weierstrass-based (baseline) passivity test.
struct WeierstrassPassivityResult {
  bool passive = false;
  bool properPartPassive = false;
  bool m1Psd = false;           ///< First Markov parameter PSD.
  bool higherMarkovZero = false;///< Mk = 0 for k >= 2.
  WeierstrassForm form;         ///< The decomposition used (diagnostics).
};

/// Baseline DS passivity test: decompose via Weierstrass, then test the
/// proper part (Hamiltonian certificate) and the Markov parameters
/// separately. This is the "Weierstrass decomposition" column of Table 1.
WeierstrassPassivityResult testPassivityWeierstrass(
    const DescriptorSystem& sys);

}  // namespace shhpass::ds
