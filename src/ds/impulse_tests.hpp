// Impulse-freeness, impulse observability and impulse controllability tests
// for descriptor systems via the SVD-coordinate characterizations of
// Sec. 2.5 of the paper (items 5 of each equivalence list).
#pragma once

#include "ds/descriptor.hpp"
#include "ds/svd_coords.hpp"

namespace shhpass::ds {

/// Mode-structure census of a regular pencil (E, A):
/// n = q finite dynamic + (n - r) nondynamic + (r - q) impulsive.
struct ModeCensus {
  std::size_t order = 0;       ///< n
  std::size_t rankE = 0;       ///< r
  std::size_t finite = 0;      ///< q = deg det(-sE + A)
  std::size_t nondynamic = 0;  ///< n - r (grade-1 infinite modes)
  std::size_t impulsive = 0;   ///< r - q (grade >= 2 infinite modes)
};

/// Count finite / nondynamic / impulsive modes of the system's pencil.
ModeCensus censusModes(const DescriptorSystem& sys, double rankTol = -1.0);

/// The pair (E, A) is impulse-free iff in SVD coordinates A22 vanishes or is
/// nonsingular (equivalently, no grade >= 2 infinite eigenvectors exist).
bool isImpulseFree(const DescriptorSystem& sys, double rankTol = -1.0);

/// (E, A, C) is impulse observable iff [A22; C2] vanishes or has full
/// column rank in SVD coordinates.
bool isImpulseObservable(const DescriptorSystem& sys, double rankTol = -1.0);

/// (E, A, B) is impulse controllable iff [A22 B2] vanishes or has full
/// row rank in SVD coordinates.
bool isImpulseControllable(const DescriptorSystem& sys, double rankTol = -1.0);

/// The index of the pencil: 0 if E nonsingular, 1 if impulse-free with
/// singular E, and k >= 2 when grade-k infinite eigenvectors exist.
/// Computed from the nilpotency degree of the infinite part.
std::size_t pencilIndex(const DescriptorSystem& sys, double rankTol = -1.0);

}  // namespace shhpass::ds
