// Transformation of a descriptor system to SVD coordinates (Sec. 2.4,
// Eq. 7 of the paper): an orthogonal r.s.e. that exposes the rank
// structure of E and enables the convenient impulse tests of Sec. 2.5.
#pragma once

#include "ds/descriptor.hpp"
#include "linalg/svd.hpp"

namespace shhpass::ds {

/// A descriptor system in SVD coordinates: E' = U^T E V = diag(E11, 0) with
/// E11 = Sigma_r nonsingular, A' = U^T A V partitioned conformally, etc.
struct SvdCoordinates {
  DescriptorSystem sys;  ///< Transformed system (same transfer function).
  linalg::Matrix u, v;   ///< Orthogonal transforms used.
  std::size_t rankE = 0; ///< r = rank(E).

  /// Conformal blocks of the transformed system.
  linalg::Matrix a11() const;
  linalg::Matrix a12() const;
  linalg::Matrix a21() const;
  linalg::Matrix a22() const;
  linalg::Matrix b1() const;
  linalg::Matrix b2() const;
  linalg::Matrix c1() const;
  linalg::Matrix c2() const;
};

/// Compute the SVD-coordinate form of a descriptor system. `rankTol` is the
/// relative tolerance for rank(E) (negative = SVD default); the rank(E)
/// decision is recorded into `rankReport` when non-null (shared policy,
/// svd.hpp).
SvdCoordinates toSvdCoordinates(const DescriptorSystem& sys,
                                double rankTol = -1.0,
                                linalg::RankReport* rankReport = nullptr);

}  // namespace shhpass::ds
