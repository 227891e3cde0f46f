// Positive-realness test for *proper, regular* state-space systems
// G(s) = D + C (sI - A)^{-1} B — the standard Hamiltonian-based check the
// paper applies to the extracted proper part (Sec. 2.2, refs [9, 10]).
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace shhpass::control {

/// Outcome of a regular-system positive-realness test.
struct PrTestResult {
  bool positiveReal = false;
  bool stable = false;          ///< A Hurwitz (prerequisite).
  bool usedHamiltonian = false; ///< Certificate path: Hamiltonian spectrum.
  bool usedSampling = false;    ///< Fallback path: frequency sweep.
  double worstEigenvalue = 0.0; ///< min over omega of lambda_min(G+G^*)
                                ///< observed (sampling path only).
  double worstFrequency = 0.0;  ///< argmin frequency (sampling path only).
};

/// Frequency response of the proper system (A, B, C, D) evaluated on a
/// real Schur form A = Q T Q^T (Laub, IEEE TAC 26(2), 1981): built once,
/// then every frequency solves (jwI - T) X = Q^T B by complex block
/// back-substitution over the 1x1 and 2x2 diagonal blocks of T (each 2x2
/// block solved with partial pivoting) — O(n^2 m) per frequency instead
/// of a dense O(n^3) solve. The back-substitution and the product C X run
/// in long double, so Re G(jw) stays accurate where it is many orders of
/// magnitude below |G(jw)| (where long double is double, at double
/// accuracy).
///
/// When A is already quasi-triangular (the pipeline's proper part Lambda
/// always is), T = A and B, C are kept as given. Otherwise the
/// constructor runs linalg::realSchur(a) once and keeps T, Q^T B and C Q.
/// A must have no eigenvalue at a queried jw.
class PopovEvaluator {
 public:
  PopovEvaluator(const linalg::Matrix& a, const linalg::Matrix& b,
                 const linalg::Matrix& c, const linalg::Matrix& d);

  /// Eigenvalues of A, read off the diagonal blocks of T.
  std::vector<std::complex<double>> eigenvalues() const;

  /// G(jw) = D + C (jwI - A)^{-1} B, split into real and imaginary parts.
  void transfer(double omega, linalg::Matrix& re, linalg::Matrix& im) const;

  /// lambda_min of the Hermitian matrix G(jw) + G(jw)^*.
  double minEigenvalue(double omega) const;

 private:
  linalg::Matrix t_, b_, c_, d_;
};

/// Test positive realness of the proper system (A, B, C, D).
///
/// When R = D + D^T is (numerically) nonsingular, the associated Hamiltonian
/// matrix having no purely imaginary eigenvalues certifies lambda_min(G(jw) +
/// G(jw)^*) never crosses zero; combined with positivity at one probe
/// frequency this decides positive realness. When R is singular the test
/// falls back to a logarithmic frequency sweep of 122 samples (documented
/// heuristic).
///
/// Cost model: A is brought to real Schur form once (free when A is
/// already quasi-triangular, as the pipeline's proper part is), then
/// G(0) and every sample cost O(n^2 m) through PopovEvaluator. The sweep
/// used to solve one dense 2n x 2n real system per sample, 122 (2n)^3
/// factorizations per test. The Hamiltonian path still pays one
/// O((2n)^3) eigenvalue computation.
PrTestResult testPositiveRealProper(const linalg::Matrix& a,
                                    const linalg::Matrix& b,
                                    const linalg::Matrix& c,
                                    const linalg::Matrix& d,
                                    double imagTol = 1e-8);

}  // namespace shhpass::control
