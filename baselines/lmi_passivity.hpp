// The extended LMI passivity test for descriptor systems (Freund & Jarre;
// Sec. 2.2, Eq. 4 of the paper): G(s) is positive real if the LMIs
//     A^T X + X^T A   X^T B - C^T
//   [ B^T X - C      -(D + D^T) ]  <= 0,      E^T X = X^T E >= 0
// admit a solution X (n x n, not necessarily symmetric). This is the
// O(n^5)-O(n^6) baseline of Table 1.
#pragma once

#include "baselines/sdp_solver.hpp"
#include "ds/descriptor.hpp"
#include "linalg/svd.hpp"

namespace shhpass::lmi {

/// Result of the LMI passivity test.
struct LmiPassivityResult {
  bool passive = false;
  double tStar = 0.0;          ///< Phase-I margin (>= -tol: feasible).
  std::size_t variables = 0;   ///< Dimension of the reduced X subspace.
  int newtonIterations = 0;
  /// Health of the SVD rank decisions (shared policy, svd.hpp): the
  /// symmetry-constraint kernel and the Im(E^T) compression basis.
  linalg::RankReport rankReport;
};

/// Run the extended LMI test. The symmetry constraint E^T X = X^T E is
/// eliminated exactly by restricting X to the kernel of the skew-part
/// operator (computed once by SVD), after which the two LMI blocks are
/// handed to the interior-point feasibility solver. The E^T X >= 0 block is
/// compressed to the range of E^T, where it can be strictly definite.
LmiPassivityResult testPassivityLmi(const ds::DescriptorSystem& g,
                                    const SdpOptions& opt = {});

}  // namespace shhpass::lmi
