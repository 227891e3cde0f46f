// Rank-revealing row/column compression — the primitive under the one-pass
// staircase deflation chain (GUPTRI-style) that runs the impulse-deflation,
// nondynamic-removal, and m1-extraction stages at every order.
//
// A Compression is a certificate about ONE matrix M: the full list of its
// singular values (so every rank decision still goes through the shared
// resolveRankTol / rankFromSingularValues policy and lands in a
// RankReport), plus orthonormal bases of the requested fundamental
// subspaces. Four kernels produce that certificate at very different
// costs, picked by structure:
//
//   * Diagonal        — M square with exactly-zero off-diagonal (the
//                       balanced benchmark E): sigma = |d_i| sorted, bases
//                       are signed unit columns. O(n^2) detect, O(n*r)
//                       assembly.
//   * QrSvd           — tall (or, transposed internally, wide) M:
//                       blocked non-pivoted QR, then a full SVD of the
//                       small R factor (its singular values alone, the
//                       same bits, when at most a full-rank left
//                       nullspace is wanted). sigma(R) == sigma(M)
//                       exactly (orthogonal invariance), so the
//                       certificate is as strong as a full SVD at a
//                       fraction of the cost; range/left-null bases come
//                       from applyQ.
//   * SkewTridiagonal — M square and exactly skew-symmetric (E1 after
//                       skewSymmetrize): a dsytrd-style blocked skew
//                       tridiagonalization M = Q T Q^T (skewTridiagonalize;
//                       rank-2 skew updates, deferred within a panel, the
//                       trailing block updated by gemm); the odd/even
//                       permutation turns T into [[0, C], [-C^T, 0]] with
//                       C lower bidiagonal of half size, whose Givens-QR +
//                       bidiagonal sweep (the SVD kernel's own rotation
//                       engine) delivers every sigma of M (each sigma(C)
//                       twice, plus a structural zero when the order is
//                       odd) and exactly orthonormal range/kernel bases.
//                       One skew tridiagonalization + half-size O(n^2)
//                       work instead of a full-size SVD. It serves every
//                       exactly-skew square input, whatever its order.
//                       Range pairing: the range columns come in pairs
//                       (2i, 2i+1) with R_2i^T M R_2i+1 = sigma_2i
//                       (= sigma_2i+1) and R_a^T M R_b = 0 for all
//                       remaining column pairs a, b, so [R_even, R_odd]^T M
//                       [R_even, R_odd] = [0 S; -S 0] with
//                       S = diag(sigma_0, sigma_2, ...): the skew Schur
//                       form of M (Ward & Gray, ACM TOMS 4(3), 1978).
//                       The nondynamic stage reads E1's Schur form off
//                       this pairing; compress() itself keeps the columns
//                       in sigma order.
//   * Svd             — certified fallback: a full SVD(M), or only its
//                       singular values (linalg::singularValues, the
//                       same bits) when no basis is requested. Always
//                       valid; counted in StaircaseReport::svdFallbacks
//                       so the diagnostics show when the structured
//                       paths did not engage.
//
// Every kernel feeds the SAME rank policy with the SAME (full-accuracy)
// singular values; the kernels differ only in how the bases are
// assembled. Bit-determinism: all building blocks (gemm, blocked QR, the
// blocked skew tridiagonalization, blocked SVD, the bidiagonal sweep) are
// bit-deterministic for every setGemmThreads() setting, so a Compression
// — and the whole staircase chain above it — is too.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace shhpass::linalg {

/// Which compression kernel ran.
enum class CompressionKernel { Svd, Diagonal, QrSvd, SkewTridiagonal };

/// Health record of the staircase chain. Like RankReport it is passed
/// down by pointer and every compression writes into the caller's
/// record; the analyzer hands each stage AnalysisReport::staircase.
struct StaircaseReport {
  std::size_t compressions = 0;       ///< Compressions computed.
  std::size_t svdFallbacks = 0;       ///< ... that fell back to a full SVD.
  std::size_t diagonalFastPaths = 0;  ///< ... served by the diagonal kernel.
  std::size_t qrCompressions = 0;     ///< ... served by the QR+small-SVD kernel.
  std::size_t skewTridiagonalizations = 0;  ///< ... by the skew kernel.
  std::size_t reusedCompressions = 0; ///< Consumers served by a compression
                                      ///< computed earlier in the chain.
  std::size_t chainLength = 0;        ///< Staircase steps executed.
  std::size_t truncatedSteps = 0;     ///< Steps skipped because the
                                      ///< deflation subspace stabilized.

  bool operator==(const StaircaseReport&) const = default;
};

/// What compress() should assemble. Singular values and the rank decision
/// are always produced; bases are opt-in because some are much more
/// expensive than others (e.g. the left nullspace of a tall matrix costs
/// a full-Q application).
struct CompressionOptions {
  double rankTol = -1.0;  ///< Shared rank policy tolerance (< 0: default).
  bool wantRange = false;          ///< Orthonormal basis of Im(M), m x r.
  bool wantCorange = false;        ///< Basis of Im(M^T), n x r.
  bool wantNullspace = false;      ///< Basis of Ker(M), n x (n - r).
  bool wantLeftNullspace = false;  ///< Basis of Ker(M^T), m x (m - r).

  /// All four bases: the compression of a descriptor E that the
  /// impulsive-structure record and the impulse deflation read.
  static CompressionOptions allBases(double rankTol) {
    CompressionOptions o;
    o.rankTol = rankTol;
    o.wantRange = o.wantCorange = true;
    o.wantNullspace = o.wantLeftNullspace = true;
    return o;
  }
};

/// A certified rank-revealing compression of one matrix. Bases that were
/// not requested are left empty (0 x 0).
struct Compression {
  std::size_t rows = 0, cols = 0;
  CompressionKernel kernelUsed = CompressionKernel::Svd;
  std::vector<double> sigma;  ///< All min(m, n) singular values, descending.
  double resolvedTol = 0.0;   ///< The cutoff the rank decision used.
  std::size_t rank = 0;       ///< Shared-policy rank (recorded in reports).
  Matrix range;               ///< m x rank.
  Matrix corange;             ///< n x rank.
  Matrix nullspace;           ///< n x (n - rank).
  Matrix leftNullspace;       ///< m x (m - rank).

  std::size_t nullity() const { return cols - rank; }

  /// Minimum-norm pseudoinverse application M^+ b = corange * S_r^{-1} *
  /// range^T b. Requires wantRange and wantCorange.
  Matrix applyPinv(const Matrix& b) const;

  /// Pseudoinverse of the TRANSPOSE: (M^T)^+ b = range * S_r^{-1} *
  /// corange^T b. Lets one compression of E serve both E^+ and (E^T)^+
  /// consumers. Requires wantRange and wantCorange.
  Matrix applyPinvTranspose(const Matrix& b) const;
};

/// Compute a compression of `m`. The rank decision is recorded into
/// `rankReport` (when non-null) through rankFromSingularValues, exactly
/// like a direct SVD rank() call would; kernel/ fallback counters go into
/// `stairReport` (when non-null). The kernel is picked, in order: Diagonal
/// (exact structural test), SkewTridiagonal (square and exactly skew, any
/// order), QrSvd (aspect ratio >= 2), else the Svd fallback.
Compression compress(const Matrix& m, const CompressionOptions& opts,
                     RankReport* rankReport = nullptr,
                     StaircaseReport* stairReport = nullptr);

/// True iff `m` is square with every off-diagonal entry exactly zero
/// (the structural precondition of the Diagonal kernel).
bool isExactlyDiagonal(const Matrix& m);

/// (I - B B^T) m for an orthonormal-column basis B, with one
/// re-orthogonalization pass ("twice is enough", Kahan/Parlett): a single
/// classical pass leaves a residual of order eps * kappa along the basis
/// when a column of m is nearly contained in span(B); the second pass
/// reduces it to order eps. Shared by every deflation-chain projection.
Matrix projectOutTwice(const Matrix& basis, const Matrix& m);

}  // namespace shhpass::linalg
