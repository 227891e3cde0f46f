// Aggressive early deflation (AED) for the multishift QR eigensolver
// (LAPACK dlaqr2 lineage).
//
// Given an unreduced active block [ilo, ihi] of an upper Hessenberg
// matrix, one AED step:
//
//   1. takes the trailing nw x nw window [kwtop, ihi] (kwtop =
//      ihi - nw + 1) and computes its real Schur form T = V^T W V with
//      the windowed Francis solver (francisSchurWindow on a copy, then
//      structure repair + dlanv2 standardization);
//   2. examines the "spike" s * V(0, :) — the image of the subdiagonal
//      entry s = H(kwtop, kwtop-1) under the window transform — block by
//      block from the bottom: an eigenvalue block whose spike feet are
//      negligible (LAPACK threshold: below eps times the block's
//      eigenvalue magnitude, with a safe-minimum floor) is DEFLATED in
//      place; an undeflatable block is moved to the top of the window by
//      the residual-checked swapAdjacentBlocks of schur_reorder.hpp (a
//      rejected swap conservatively ends the scan — fewer deflations,
//      never a corrupted spectrum);
//   3. reflects the surviving spike back to a single subdiagonal entry
//      and restores the undeflated part of the window to Hessenberg form
//      (an unblocked pass — the window is small);
//   4. commits the window transform to the full matrix: the off-window
//      row/column blocks and the Q accumulation are updated in place
//      with one gemm() call each (applyWindowTransform), which is where
//      the O(n * nw^2) bulk of the cost goes;
//   5. harvests the eigenvalues of the undeflated part as shift
//      candidates for the next multishift sweep.
//
// The deflated eigenvalues are final converged Schur blocks; the caller
// shrinks its active range by `deflated` rows.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/schur_multishift.hpp"

namespace shhpass::linalg {

/// Outcome of one AED step.
struct AedResult {
  /// Eigenvalues deflated off the bottom of the active block (the
  /// caller's new active range is [ilo, ihi - deflated]).
  std::size_t deflated = 0;
  /// Eigenvalues of the undeflated window part, in diagonal order
  /// (complex conjugate pairs adjacent) — the next sweep's shift pool.
  std::vector<std::complex<double>> shifts;
};

/// Run one aggressive-early-deflation step on the trailing `nw` rows of
/// the unreduced active block [ilo, ihi] of the upper Hessenberg `h`
/// (2 <= nw <= ihi - ilo), accumulating the window transform into `q`.
/// Counters land in `report` (aedWindows, aedDeflations, iterations of
/// the inner windowed Francis solve). `ws` is the caller's reusable
/// workspace of applyWindowTransform. Throws SchurConvergenceError if
/// the window factorization itself fails to converge.
AedResult aggressiveEarlyDeflation(Matrix& h, Matrix& q, std::size_t ilo,
                                   std::size_t ihi, std::size_t nw,
                                   SchurReport& report, Matrix& ws);

/// Commit an orthogonal transform U (nw x nw) of the window rows and
/// columns [w0, w0 + nw) of `h` to everything outside the window, in
/// place (dlaqr5's off-window updates):
///
///   H(0:w0, win)      <- H(0:w0, win) U
///   H(win, w0+nw : n) <- U^T H(win, w0+nw : n)
///   Z(:, win)         <- Z(:, win) U      (skipped when z is 0 x 0)
///
/// Each product reads its block of h or z through a view, gemms into the
/// reusable workspace `ws` (grown as needed), and copies the rows back —
/// no block copy of the input and no fresh temporary per call. Shared by
/// the multishift sweep flush, the small-block finish and the AED commit.
void applyWindowTransform(Matrix& h, Matrix& z, const Matrix& u,
                          std::size_t w0, Matrix& ws);

}  // namespace shhpass::linalg
