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
  bool ok = false;                 ///< False whenever the Fig.-1 run
                                   ///< stops before the pr-test (its
                                   ///< failure stage is neither None nor
                                   ///< ProperPartNotPr; the analyzer's
                                   ///< report names that stage).
};

/// Reduce a (passive) descriptor system. Runs the standard Fig.-1
/// pipeline (api::runPipeline) with `rankTol` (negative = shared SVD
/// default) threaded into every rank decision, and reduces the proper
/// part and M1 that run extracted on the balanced copy, mapped back to
/// the original frequency scale; `rankTol` does NOT affect the
/// Gramian-factor cutoffs, which are eigenvalue tolerances documented at
/// psdFactor. `properOrder` caps the retained proper states; `hsvTol`
/// additionally drops states whose Hankel singular value is below
/// hsvTol * hsv_max. Bad input (including a non-finite `rankTol`) throws
/// std::invalid_argument; any other operational failure of the run throws
/// std::runtime_error.
ReducedModel reduceDescriptor(const ds::DescriptorSystem& g,
                              std::size_t properOrder,
                              double hsvTol = 0.0,
                              double rankTol = -1.0);

}  // namespace shhpass::core
