// Extension (Sec. 4 remarks of the paper): descriptor-system model order
// reduction on top of the SHH framework.
//
// The pipeline already splits a passive DS exactly into
//     G(s) = D + Gsp(s) + s*M1,
// with the strictly proper stable part Gsp = C1 (sI - Lambda)^{-1} B1
// delivered in regular coordinates and M1 extracted from the grade-1/2
// chains. Reduction then amounts to square-root balanced truncation of
// the (small, regular) proper part, after which the reduced DS is
// reassembled with the ORIGINAL feedthrough D and the EXACT impulsive part
// s*M1 (realized as grade-2 nilpotent blocks). The infinite-frequency
// behavior — the hard part of DS MOR — is thus preserved exactly.
#pragma once

#include <vector>

#include "ds/descriptor.hpp"

namespace shhpass::core {

/// Result of the descriptor model order reduction.
struct ReducedModel {
  ds::DescriptorSystem sys;        ///< Reduced DS: r proper states plus
                                   ///< 2*rank(M1) impulsive states.
  std::vector<double> hankel;      ///< Hankel singular values of the
                                   ///< proper part (descending).
  std::size_t properOrder = 0;     ///< Retained proper states r.
  std::size_t impulsiveRank = 0;   ///< rank(M1).
  bool ok = false;                 ///< False if Phi kept impulsive modes,
                                   ///< the Eq.-(22) split failed, or M1
                                   ///< is not symmetric (the analyzer's
                                   ///< report names the failing stage).
};

/// Reduce a (passive) descriptor system. `properOrder` caps the retained
/// proper states; `hsvTol` additionally drops states whose Hankel singular
/// value is below hsvTol * hsv_max. The reduction is performed on the
/// balanced copy and mapped back to the original frequency scale.
/// `rankTol` is threaded into every rank decision of the deflation chain
/// (impulse deflation, nondynamic removal, M1 extraction), matching the
/// Fig.-1 pipeline (negative = shared SVD default); it does NOT
/// affect the Gramian-factor cutoffs, which are eigenvalue tolerances
/// documented at psdFactor.
ReducedModel reduceDescriptor(const ds::DescriptorSystem& g,
                              std::size_t properOrder,
                              double hsvTol = 0.0,
                              double rankTol = -1.0);

}  // namespace shhpass::core
