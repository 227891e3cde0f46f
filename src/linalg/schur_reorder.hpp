// Reordering of real Schur forms by orthogonal swaps of adjacent diagonal
// blocks (Bai-Demmel direct-swap method, LAPACK dtrexc/dlaexc lineage).
// Used to compute ordered invariant subspaces, e.g. the stable invariant
// subspace of the Hamiltonian matrix in Eq. (22) of the paper.
//
// Unlike a naive implementation that force-zeros the decoupled lower-left
// window block after every swap, each swap here is RESIDUAL-CHECKED
// (dlaexc-style): the orthogonal transformation is applied to a copy of
// the window first, and the swap is rejected — leaving the ordering merely
// suboptimal, never the spectrum corrupted — when the entries that should
// vanish exceed a backward-stability threshold. 2x2 diagonal blocks are
// kept in standard form (dlanv2-style): either split into two real 1x1
// eigenvalues or rotated to a complex-pair block with equal diagonals.
//
// ## Kernels, threading, accuracy
//
// reorderSchur is a windowed block reordering (D. Kressner, "Block
// algorithms for reordering standard and generalized Schur forms", ACM
// TOMS 32(4), 2006). It takes the next <= kReorderWindowBlocks selected
// blocks and bubbles them upward through a window of at most
// kReorderWindowRows rows: the adjacent swaps run on a window copy and
// accumulate a small orthogonal U, and each finished window updates the
// off-window rows and columns of T and the rows of Q^T with one gemm each.
// The swaps are the ones the one-block-at-a-time bubble performs (same
// pairs of blocks, same count on inputs where no 2x2 block splits), so the
// O(swaps * n) BLAS-1 row/column updates become O(windows * n * nw^2)
// gemm work. The one-block-at-a-time bubble survives as the test oracle
// oracle::reorderSchurBubble (tests/decoupling_oracle.hpp).
//
// swapAdjacentBlocks is the one swap kernel, shared with the aggressive
// early deflation (aed.cpp). An accepted swap applies its w x w window
// transform (w <= 4) in place, restricted to the quasi-triangular
// profile: the left update touches rows j..j+w-1 from column j rightward,
// the right update columns j..j+w-1 down to row j+w-1 — entries outside
// that profile are exact zeros and provably stay zero. The rehearsal
// product and the local Sylvester solve run on stack arrays.
//
// Threading: the swaps are inherently sequential (each depends on the
// previous one); only the window flushes call gemm, whose results are
// bit-identical at every gemm thread count, so a reordering is
// bit-deterministic run to run and across setGemmThreads settings.
//
// Accuracy: each accepted swap commits a backward error of at most
// max(10 eps ||window||, 20 eps ||T||) (the acceptance thresholds; ||T||
// is the largest entry of the whole factor, not of the window copy), so a
// full reorder of s swaps perturbs T by O(s * eps * ||T||) in the worst
// case; the per-swap residuals and a matched eigenvalue-drift bound are
// tallied in ReorderReport rather than assumed.
#pragma once

#include <complex>
#include <cstddef>
#include <functional>

#include "linalg/matrix.hpp"

namespace shhpass::linalg {

/// Most selected blocks reorderSchur moves through one window together.
inline constexpr std::size_t kReorderWindowBlocks = 24;
/// Most rows of one reorderSchur window; a group of selected blocks spans
/// at most this many rows and holds at most half as many of its own.
inline constexpr std::size_t kReorderWindowRows = 64;

/// Predicate on an eigenvalue deciding whether it should be moved to the
/// leading (top-left) part of the Schur form.
using EigenvalueSelector = std::function<bool(std::complex<double>)>;

/// Health record of one reordering pass: how many adjacent swaps ran, how
/// many were rejected by the residual check, the largest accepted-swap
/// residual, and an accumulated bound on eigenvalue drift. Serialized into
/// the api::AnalysisReport JSON so readers of a report can audit reorder
/// accuracy.
struct ReorderReport {
  /// Accepted adjacent-block swaps.
  std::size_t swaps = 0;
  /// Swap ATTEMPTS rejected by the residual check. A nonzero count means
  /// the requested ordering could not be fully realized (some selected
  /// eigenvalues remain outside the leading block); the Schur form itself
  /// stays numerically intact. One ill-posed exchange may be re-attempted
  /// (and re-counted) when an interleaved block split forces a structural
  /// rescan, so this counts attempts, not distinct exchanges.
  std::size_t rejectedSwaps = 0;
  /// Max over accepted swaps of the largest entry of the decoupled
  /// lower-left window block before it is set to zero — the backward error
  /// ||Q^T T Q - T'|| introduced by that swap, in absolute terms.
  double maxResidual = 0.0;
  /// Sum over accepted swaps of the eigenvalue perturbation of the two
  /// swapped blocks (matched before/after). An upper bound on the total
  /// drift any single eigenvalue accumulated along its bubbling path.
  double eigenvalueDrift = 0.0;
  /// dlanv2 standardizations applied (splits + complex-pair rotations).
  std::size_t standardizations = 0;

  /// True when the requested ordering was realized exactly (no rejects).
  bool clean() const { return rejectedSwaps == 0; }

  bool operator==(const ReorderReport&) const = default;
};

/// Reorder a real Schur factorization (t, q) in place so that every
/// eigenvalue for which `select` is true appears in the leading diagonal
/// blocks of t. 2x2 blocks are moved atomically (a conjugate pair is either
/// fully selected or not, judged on its first eigenvalue); fused 2x2 blocks
/// whose eigenvalues are actually real are split first so both halves are
/// classified independently.
///
/// The exchanges run through windows (see the header comment); rejection
/// and split handling follow the one-block-at-a-time contract: a rejected
/// block stays where it is and later selected blocks move past it, and a
/// split rescans the block structure.
///
/// Returns the dimension of the leading invariant subspace actually
/// realized (the number of selected eigenvalues moved to the top). When no
/// swap is rejected this equals the total selected count; rejected swaps
/// (nearly identical eigenvalues across the swap, an ill-posed exchange)
/// leave the affected block in place and are tallied in `report`.
std::size_t reorderSchur(Matrix& t, Matrix& q, const EigenvalueSelector& select,
                         ReorderReport* report = nullptr);

/// Standardize every 2x2 diagonal block of the quasi-triangular t (see
/// standardize2x2), accumulating the rotations into q and counting the
/// blocks that changed in `report` (if non-null). Used by realSchur to
/// deliver standardized output and by reorderSchur's entry pass.
void standardizeQuasiTriangular(Matrix& t, Matrix& q,
                                ReorderReport* report = nullptr);

/// Standardize the 2x2 diagonal block at (j, j) of the quasi-triangular t
/// (dlanv2): apply an orthogonal rotation — to the full rows/columns of t,
/// accumulated into q — after which the block either
///   * is upper triangular (two real eigenvalues; the block is split and
///     the return value is true), or
///   * has equal diagonal entries and off-diagonal entries of opposite
///     sign (standardized complex-conjugate pair; returns false).
/// A block that is already standardized is left bit-identical.
bool standardize2x2(Matrix& t, Matrix& q, std::size_t j);

/// Swap the adjacent diagonal blocks of sizes p and qsz located at row/col
/// j (block1 at j..j+p-1, block2 at j+p..j+p+qsz-1) of the quasi-triangular
/// t using an orthogonal similarity, updating t and the accumulated q.
///
/// The 1x1/1x1 exchange is a single exact Givens rotation and always
/// succeeds. Exchanges involving a 2x2 block go through a local Sylvester
/// solve + QR; the transformation is rehearsed on a window copy and the
/// swap is REJECTED (t, q untouched, returns false) when the post-swap
/// residual exceeds a small multiple of machine epsilon times the window
/// norm. On success the swapped 2x2 blocks are re-standardized and the
/// accepted-swap residual/drift are recorded in `report`.
bool swapAdjacentBlocks(Matrix& t, Matrix& q, std::size_t j, std::size_t p,
                        std::size_t qsz, ReorderReport* report = nullptr);

}  // namespace shhpass::linalg
