// Sec. 3.4 of the paper: extract the first Markov parameter M1 (residue of
// the pole at infinity) of G directly from grade-1/grade-2 generalized
// eigenvector chains (Eqs. 24-25), plus the detection of higher-order
// (grade >= 3) impulsive structure which Eq. (3) forbids for passive G.
//
// The stage reads the impulsive-structure record of ds/impulse_tests.hpp:
// one compression of E (reused from the impulse-deflation stage when the
// pipeline hands it in) gives the right and left grade-2 heads and their
// partners, and the second Wong sequence gives the pencil index.
#pragma once

#include "ds/descriptor.hpp"
#include "ds/impulse_tests.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"

namespace shhpass::core {

/// Result of the M1 extraction.
struct M1Extraction {
  linalg::Matrix m1;        ///< m x m first Markov parameter.
  std::size_t chainCount = 0;  ///< Number of grade-2 impulsive chains found.
  bool symmetric = false;   ///< M1 = M1^T within tolerance (required for
                            ///< positive realness of the pole at infinity).
  bool psd = false;         ///< M1 symmetric positive semidefinite.
};

/// A tag that selects nothing: the staircase chain is the only deflation
/// chain. Kept only for perfbench/replay.cpp, which passes
/// DeflationPath::Auto as extractM1's third argument.
enum class DeflationPath { Auto };

/// Extract M1 via the deflating-subspace projections of Eq. (25):
/// right chains V1 = Ker E with A V1 in Im E, V2 = E^+ A V1; left chains
/// likewise on (E^T, A^T); then M1 = -Cinf Ainf^{-1} Einf Ainf^{-1} Binf
/// on the projected pencil. For an impulse-free system M1 = 0. The heads
/// and partners are read from `structure`, which must be the record of g.
M1Extraction extractM1(const ds::DescriptorSystem& g,
                       const ds::ImpulsiveStructure& structure);

/// extractM1 on the record ds::impulsiveStructure(g, rankTol,
/// eCompression, rankReport, stair) builds. The unnamed DeflationPath
/// parameter is ignored.
M1Extraction extractM1(const ds::DescriptorSystem& g, double rankTol = -1.0,
                       DeflationPath = DeflationPath::Auto,
                       const linalg::Compression* eCompression = nullptr,
                       linalg::RankReport* rankReport = nullptr,
                       linalg::StaircaseReport* stair = nullptr);

/// True iff the pencil (E, A) carries generalized eigenvector chains of
/// grade >= 3, i.e. its index (the number of Wong levels of
/// ds::impulsiveStructure) is at least 3. For a minimal G this is
/// equivalent to some Markov parameter Mk, k >= 2, being nonzero —
/// forbidden by Eq. (3). (This replaces the paper's mode-counting
/// heuristic with a direct structural check.) Every rank decision is a
/// shared-policy compression recorded into `report` / `stair` when
/// non-null; there is no separately derived cutoff. A non-null
/// `eCompression` of g.e (with all four bases) is reused instead of
/// recompressing E.
bool hasHigherOrderImpulses(const ds::DescriptorSystem& g,
                            double rankTol = -1.0,
                            linalg::RankReport* report = nullptr,
                            linalg::StaircaseReport* stair = nullptr,
                            const linalg::Compression* eCompression = nullptr);

}  // namespace shhpass::core
