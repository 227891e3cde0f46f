// Linear time-invariant continuous-time descriptor system (DS)
//     E x' = A x + B u,   y = C x + D u
// with E generally singular (Eq. 1 of the paper), plus the elementary
// system operations the passivity pipeline needs: transfer-function
// evaluation, adjoint, sum, and regularity/stability queries.
#pragma once

#include <complex>
#include <cstddef>

#include "linalg/matrix.hpp"

namespace shhpass::ds {

/// A descriptor system (E, A, B, C, D). E, A are n x n; B is n x m;
/// C is m_out x n; D is m_out x m.
struct DescriptorSystem {
  linalg::Matrix e, a, b, c, d;

  std::size_t order() const { return a.rows(); }
  std::size_t numInputs() const { return b.cols(); }
  std::size_t numOutputs() const { return c.rows(); }

  /// Square systems (inputs == outputs) are required for passivity, where
  /// u^T y is the instantaneous power injected into the system.
  bool isSquareSystem() const { return numInputs() == numOutputs(); }

  /// Throws std::invalid_argument if the block dimensions are
  /// inconsistent or any entry of E, A, B, C or D is NaN or infinite.
  void validate() const;
};

/// Value of G(s) at a complex frequency point, split into real and
/// imaginary parts (the library is real-arithmetic throughout).
struct TransferValue {
  linalg::Matrix re, im;
};

/// Evaluate G(s) = D + C (sE - A)^{-1} B at s = sRe + j sIm via one real
/// 2n x 2n solve. Throws std::runtime_error if s is (numerically) a pole.
TransferValue evalTransfer(const DescriptorSystem& sys, double sRe,
                           double sIm);

/// The adjoint system G~(s) = G(-s)^T, realized without inversion as
/// (E', A', B', C', D') = (E^T, -A^T, -C^T, B^T, D^T). Note that
/// D' + C'(sE' - A')^{-1}B' = D^T - B^T (sE^T + A^T)^{-1} C^T = G(-s)^T.
DescriptorSystem adjoint(const DescriptorSystem& sys);

/// Parallel interconnection G1(s) + G2(s) via block-diagonal stacking.
/// Requires matching input/output counts.
DescriptorSystem add(const DescriptorSystem& g1, const DescriptorSystem& g2);

/// True if the pencil (E, A) is regular (det(A - sE) not identically
/// zero). A reading of the impulsive-structure record (ds/impulse_tests.hpp):
/// A is injective on W*.
bool isRegular(const DescriptorSystem& sys);

/// True if all finite dynamic modes have Re(lambda) < 0 ("stable" in the
/// paper's sense; says nothing about impulsive modes). The eigenvalues are
/// those of the finite part split off the record (ds::finiteSpectrum).
/// Throws std::runtime_error on a singular pencil.
bool hasStableFiniteModes(const DescriptorSystem& sys);

/// lambda_min of the Hermitian matrix G(jw) + G(jw)^* at frequency w; the
/// frequency-domain passivity margin probe used in tests and diagnostics.
double popovMinEigenvalueDs(const DescriptorSystem& sys, double omega);

}  // namespace shhpass::ds
